package traffic

import (
	"testing"

	"sfp/internal/packet"
	"sfp/internal/pipeline"
)

// TestReplayAllocFlat asserts the fix for the parallel-replay allocation
// regression (allocs/op grew 103 → 803 from workers=1 to workers=8): with
// the persistent worker pool, steady-state Replay performs no per-call
// allocation at any worker count.
func TestReplayAllocFlat(t *testing.T) {
	items := genWorkload(13, 512)
	got := map[int]float64{}
	for _, workers := range []int{1, 2, 4, 8} {
		eng := Engine{
			Workers: workers,
			New:     func(int) (Processor, error) { v, err := newEngineSwitch(); return v, err },
		}
		// Warm the pool: builds processors, scratches, and chunk buffers.
		if _, err := eng.Replay(items); err != nil {
			t.Fatal(err)
		}
		got[workers] = testing.AllocsPerRun(20, func() {
			eng.Replay(items)
		})
		eng.Close()
	}
	for _, workers := range []int{2, 4, 8} {
		if got[workers] != got[1] {
			t.Errorf("allocs/op not flat in workers: %v at workers=1 vs %v at workers=%d",
				got[1], got[workers], workers)
		}
	}
	if got[1] > 0 {
		t.Errorf("steady-state Replay allocates %v/op, want 0", got[1])
	}
}

// plainProc wraps a switch while hiding its BatchCompiler interface, forcing
// the engine onto the per-packet fallback path.
type plainProc struct{ p Processor }

func (pp plainProc) Process(pk *packet.Packet, nowNs float64) pipeline.Result {
	return pp.p.Process(pk, nowNs)
}

// TestEngineBatchMatchesFallback proves the batched compiled path and the
// per-packet fallback produce bit-identical replay statistics.
func TestEngineBatchMatchesFallback(t *testing.T) {
	const n = 500
	run := func(plain bool) EngineStats {
		eng := Engine{
			Workers: 3,
			New: func(int) (Processor, error) {
				v, err := newEngineSwitch()
				if err != nil {
					return nil, err
				}
				if plain {
					return plainProc{v}, nil
				}
				return v, nil
			},
			KeepLatencies: true,
		}
		defer eng.Close()
		stats, err := eng.Replay(genWorkload(21, n))
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	batched, fallback := run(false), run(true)
	if batched.Packets != fallback.Packets || batched.Drops != fallback.Drops ||
		batched.Passes != fallback.Passes || batched.TablesApplied != fallback.TablesApplied {
		t.Errorf("aggregate stats diverge: batched %+v vs fallback %+v", batched, fallback)
	}
	if batched.LatencySumNs != fallback.LatencySumNs {
		t.Errorf("latency sums diverge: %v vs %v", batched.LatencySumNs, fallback.LatencySumNs)
	}
	for i := range fallback.Latencies {
		if batched.Latencies[i] != fallback.Latencies[i] {
			t.Fatalf("latency[%d]: batched %v vs fallback %v", i, batched.Latencies[i], fallback.Latencies[i])
		}
	}
}

// TestEngineCloseAndRebuild: the pool survives Close (next Replay rebuilds)
// and a Workers change between calls.
func TestEngineCloseAndRebuild(t *testing.T) {
	calls := 0
	eng := Engine{
		Workers: 2,
		New: func(int) (Processor, error) {
			calls++
			v, err := newEngineSwitch()
			return v, err
		},
	}
	items := genWorkload(31, 64)
	if _, err := eng.Replay(items); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("factory calls = %d, want 2", calls)
	}
	if _, err := eng.Replay(items); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Errorf("pool rebuilt on second Replay: %d factory calls", calls)
	}
	eng.Close()
	if _, err := eng.Replay(items); err != nil {
		t.Fatal(err)
	}
	if calls != 4 {
		t.Errorf("factory calls after Close+Replay = %d, want 4", calls)
	}
	eng.Workers = 3
	if _, err := eng.Replay(items); err != nil {
		t.Fatal(err)
	}
	if calls != 7 {
		t.Errorf("factory calls after Workers change = %d, want 7", calls)
	}
	eng.Close()
}

// TestEngineEmptyWorkload: zero items is a no-op, not a hang or panic.
func TestEngineEmptyWorkload(t *testing.T) {
	eng := Engine{
		Workers: 4,
		New:     func(int) (Processor, error) { v, err := newEngineSwitch(); return v, err },
	}
	defer eng.Close()
	stats, err := eng.Replay(nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Packets != 0 {
		t.Errorf("packets = %d, want 0", stats.Packets)
	}
}
