package placement

import (
	"math"
	"math/rand"
	"reflect"
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

// TestIPParallelMatchesSerialObjective: SFP-IP must prove the same optimum
// with four tree-search workers as with one.
func TestIPParallelMatchesSerialObjective(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	in := smallInstance(rng, 4)
	serial, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if par.Status != serial.Status {
		t.Fatalf("parallel status %s, serial %s", par.Status, serial.Status)
	}
	if math.Abs(par.Objective-serial.Objective) > 1e-6 {
		t.Fatalf("parallel objective %v, serial %v", par.Objective, serial.Objective)
	}
	if err := model.Verify(in, par.Assignment, true); err != nil {
		t.Fatal(err)
	}
}
