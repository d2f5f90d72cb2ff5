package pipeline

// Concurrency tests for the shared-pipeline processing path. These are
// meaningful under `go test -race` (which scripts/check.sh always runs):
// the legacy counters were plain uint64 increments and the generic lookup
// lazily sorted the rule list on first use — both raced when parallel
// replay workers shared one pipeline.

import (
	"sync"
	"testing"

	"sfp/internal/packet"
)

// TestConcurrentProcess hammers one shared pipeline from many goroutines
// while a reader polls telemetry, verifying counters stay exact and no data
// race is reported.
func TestConcurrentProcess(t *testing.T) {
	pl, _ := benchPipeline(t, 16)
	const workers, perWorker = 8, 500

	done := make(chan struct{})
	go func() { // concurrent observability reader
		for {
			select {
			case <-done:
				return
			default:
				_ = pl.Snapshot()
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ctx Context
			p := packet.NewBuilder().
				WithTenant(uint32(1+w%16)).
				WithIPv4(packet.IPv4Addr(10, 0, 0, byte(w+1)), packet.IPv4Addr(10, 0, 0, 1)).
				WithTCP(uint16(1000+w), 80).
				Build()
			for i := 0; i < perWorker; i++ {
				p.Meta.Pass = 0
				p.Meta.Recirculate = false
				pl.ProcessCtx(p, float64(i), &ctx)
			}
		}(w)
	}
	wg.Wait()
	close(done)

	if got := pl.Processed(); got != workers*perWorker {
		t.Errorf("processed = %d, want %d (atomic counter lost updates)", got, workers*perWorker)
	}
	var hits, misses uint64
	for _, st := range pl.Stages {
		for _, tbl := range st.Tables {
			hits += tbl.Hits()
			misses += tbl.Misses()
		}
	}
	if hits+misses != workers*perWorker {
		t.Errorf("hits+misses = %d, want %d", hits+misses, workers*perWorker)
	}
}

// TestConcurrentLookupGeneric exercises the non-sharded sorted-scan path
// concurrently; the legacy implementation sorted inside Lookup and raced.
func TestConcurrentLookupGeneric(t *testing.T) {
	keys := []Key{{Field: FieldIPv4Dst, Kind: MatchLPM}}
	tbl := NewTable("lpm", keys, 64)
	tbl.RegisterAction("a", func(ctx *Context, p *packet.Packet, params []uint64) {})
	for i := 0; i < 32; i++ {
		if err := tbl.Insert(&Rule{
			Priority: i % 3,
			Matches:  []Match{Prefix(uint64(packet.IPv4Addr(10, byte(i), 0, 0)), 16)},
			Action:   "a",
		}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := packet.NewBuilder().
				WithIPv4(1, packet.IPv4Addr(10, byte(w), 9, 9)).
				Build()
			for i := 0; i < 2000; i++ {
				if tbl.Lookup(p) == nil {
					t.Error("expected LPM hit")
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
