package placement

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

// sweepInstance builds an instance with a real recirculation sweep (R = 2,
// three trials) so the concurrent trial scheduling has work to reorder.
func sweepInstance(seed int64, L int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Switch:   model.SwitchConfig{Stages: 4, BlocksPerStage: 6, EntriesPerBlock: 500, CapacityGbps: 120},
		NumTypes: 4,
		Recirc:   2,
		Chains: traffic.GenChains(rng, L, traffic.ChainParams{
			NumTypes: 4, MeanLen: 3, RuleMin: 100, RuleMax: 900,
		}),
	}
}

// TestApproxDeterministicAcrossWorkers: a fixed Seed must yield the
// identical Result — same objective bit for bit, same assignment — no
// matter how many workers run the recirculation sweep.
func TestApproxDeterministicAcrossWorkers(t *testing.T) {
	for _, seed := range []int64{3, 11} {
		in := sweepInstance(seed, 8)
		opts := ApproxOptions{Build: model.BuildOptions{Consolidate: true}, Seed: 42}
		ref, err := SolveApprox(in, opts)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		for _, workers := range []int{1, 4, 8} {
			o := opts
			o.Workers = workers
			got, err := SolveApprox(in, o)
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if got.Objective != ref.Objective {
				t.Fatalf("seed %d workers %d: objective %v, serial %v",
					seed, workers, got.Objective, ref.Objective)
			}
			if !reflect.DeepEqual(got.Assignment, ref.Assignment) {
				t.Fatalf("seed %d workers %d: assignment differs from serial", seed, workers)
			}
			if !reflect.DeepEqual(got.Metrics, ref.Metrics) {
				t.Fatalf("seed %d workers %d: metrics differ from serial", seed, workers)
			}
		}
	}
}

// TestApproxRepeatableSameSeed: the same call twice gives the same Result
// (guards against any hidden global RNG state in the sweep).
func TestApproxRepeatableSameSeed(t *testing.T) {
	in := sweepInstance(5, 8)
	opts := ApproxOptions{Build: model.BuildOptions{Consolidate: true}, Seed: 9, Workers: 4}
	a, err := SolveApprox(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolveApprox(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || !reflect.DeepEqual(a.Assignment, b.Assignment) {
		t.Fatalf("two identical runs diverged: %v vs %v", a.Objective, b.Objective)
	}
}

// TestIPParallelMatchesSerialObjective: a SolveIP bounded by MaxNodes
// alone depends only on its input, so under a parallel scheduler
// (GOMAXPROCS 4) it must match the serial one (GOMAXPROCS 1) bit for bit:
// status, objective and bound bits, node count and assignment. The
// instance stops at the node budget with an open gap, so the heuristic,
// the dive and the best-bound phase all run.
func TestIPParallelMatchesSerialObjective(t *testing.T) {
	in := smallInstance(rand.New(rand.NewSource(4)), 8)
	solve := func(procs int) *Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}, MaxNodes: 60})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one, four := solve(1), solve(4)
	if one.Status != "feasible(limit)" {
		t.Fatalf("status %s, want the node budget to bind", one.Status)
	}
	if one.Status != four.Status || one.Nodes != four.Nodes ||
		math.Float64bits(one.Objective) != math.Float64bits(four.Objective) ||
		math.Float64bits(one.Bound) != math.Float64bits(four.Bound) {
		t.Fatalf("GOMAXPROCS 1: %s obj %v bound %v nodes %d; GOMAXPROCS 4: %s obj %v bound %v nodes %d",
			one.Status, one.Objective, one.Bound, one.Nodes, four.Status, four.Objective, four.Bound, four.Nodes)
	}
	if !reflect.DeepEqual(one.Assignment, four.Assignment) {
		t.Fatal("assignments differ across GOMAXPROCS")
	}
	if err := model.Verify(in, one.Assignment, true); err != nil {
		t.Fatal(err)
	}
}
