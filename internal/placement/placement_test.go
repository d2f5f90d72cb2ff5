package placement

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

func smallInstance(rng *rand.Rand, L int) *model.Instance {
	return &model.Instance{
		Switch:   model.SwitchConfig{Stages: 4, BlocksPerStage: 6, EntriesPerBlock: 500, CapacityGbps: 120},
		NumTypes: 4,
		Recirc:   1,
		Chains: traffic.GenChains(rng, L, traffic.ChainParams{
			NumTypes: 4, MeanLen: 3, RuleMin: 100, RuleMax: 900,
		}),
	}
}

// Node budgets stand in for wall-clock caps in these tests: a budget stops
// every run at the same node, so no result depends on host speed.
const (
	// initialNodes bounds solves whose incumbent only seeds what follows.
	initialNodes = 40
	// replanNodes bounds replans, whose trees close in at most 600 nodes
	// on these instances.
	replanNodes = 5000
)

func TestSolveIPSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	in := smallInstance(rng, 4)
	res, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != "optimal" {
		t.Fatalf("status = %s", res.Status)
	}
	if res.Assignment == nil || res.Objective <= 0 {
		t.Fatalf("objective = %v", res.Objective)
	}
	if err := model.Verify(in, res.Assignment, true); err != nil {
		t.Fatal(err)
	}
	if res.Bound < res.Objective-1e-3 { // aux-variable epsilon perturbs the solver bound
		t.Errorf("bound %v below objective %v", res.Bound, res.Objective)
	}
}

func TestApproxFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	in := smallInstance(rng, 5)
	ip, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	ap, err := SolveApprox(in, ApproxOptions{Build: model.BuildOptions{Consolidate: true}, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if ap.Objective > ip.Objective+1e-6 {
		t.Errorf("approx %v beats exact IP %v", ap.Objective, ip.Objective)
	}
	if ap.Objective <= 0 {
		t.Errorf("approx placed nothing (objective %v)", ap.Objective)
	}
	// Sanity: approximation should recover a decent share of the optimum
	// on this easy instance.
	if ap.Objective < 0.4*ip.Objective {
		t.Errorf("approx %v under 40%% of IP %v", ap.Objective, ip.Objective)
	}
}

func TestGreedyFeasibleAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := smallInstance(rng, 6)
	ip, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	gr, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if gr.Objective > ip.Objective+1e-6 {
		t.Errorf("greedy %v beats exact IP %v", gr.Objective, ip.Objective)
	}
	if gr.Objective <= 0 {
		t.Error("greedy placed nothing")
	}
}

func TestMetricOrdering(t *testing.T) {
	a := &model.Chain{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}}}
	b := &model.Chain{ID: 2, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}, {Type: 2, Rules: 100}}}
	if Metric(a) <= Metric(b) {
		t.Error("shorter chain with same bandwidth should score higher")
	}
	c := &model.Chain{ID: 3, BandwidthGbps: 40, NFs: []model.ChainNF{{Type: 1, Rules: 100}}}
	if Metric(c) <= Metric(a) {
		t.Error("higher bandwidth should score higher")
	}
	in := &model.Instance{Switch: model.DefaultSwitchConfig(), NumTypes: 2, Chains: []*model.Chain{b, a, c}}
	order := sortChainsByMetric(in)
	if in.Chains[order[0]].ID != 3 || in.Chains[order[2]].ID != 2 {
		t.Errorf("order = %v", order)
	}
}

func TestGreedyPrefersHighMetric(t *testing.T) {
	// Capacity admits only one chain; greedy must pick the high-metric one.
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 10, EntriesPerBlock: 1000, CapacityGbps: 20},
		NumTypes: 1,
		Recirc:   0,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 15, NFs: []model.ChainNF{{Type: 1, Rules: 100}}},
			{ID: 2, BandwidthGbps: 14, NFs: []model.ChainNF{{Type: 1, Rules: 5000}}},
		},
	}
	res, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Deployed(0) {
		t.Error("high-metric chain not placed")
	}
	if res.Assignment.Deployed(1) {
		t.Error("both chains placed despite 20 Gbps capacity")
	}
}

func TestGreedyUsesRecirculation(t *testing.T) {
	// A 3-NF chain on a 2-stage switch requires folding.
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 4, EntriesPerBlock: 1000, CapacityGbps: 100},
		NumTypes: 3,
		Recirc:   1,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}, {Type: 2, Rules: 100}, {Type: 3, Rules: 100}}},
		},
	}
	res, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Deployed(0) {
		t.Fatal("chain not placed")
	}
	if p := res.Assignment.Passes(0, 2); p != 2 {
		t.Errorf("passes = %d, want 2", p)
	}
	if math.Abs(res.Metrics.BackplaneGbps-20) > 1e-9 {
		t.Errorf("backplane = %v, want 20", res.Metrics.BackplaneGbps)
	}
}

// Property: approx and greedy always emit Verify-feasible assignments on
// random instances, and never beat the LP bound.
func TestHeuristicsAlwaysFeasible(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		in := smallInstance(rng, 1+rng.Intn(6))
		build := model.BuildOptions{Consolidate: rng.Intn(2) == 0}

		_, lpSol, err := SolveLPRelaxation(in, build)
		if err != nil {
			return false
		}

		ap, err := SolveApprox(in, ApproxOptions{Build: build, Seed: seed})
		if err != nil {
			return false
		}
		if model.Verify(in, ap.Assignment, build.Consolidate) != nil {
			return false
		}
		if ap.Objective > lpSol.Objective+1e-5 {
			return false
		}
		gr, err := SolveGreedy(in, GreedyOptions{Consolidate: build.Consolidate})
		if err != nil {
			return false
		}
		if model.Verify(in, gr.Assignment, build.Consolidate) != nil {
			return false
		}
		return gr.Objective <= lpSol.Objective+1e-5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestIPTimeLimitEarlyTermination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := smallInstance(rng, 10)
	// A nanosecond limit with a cold solver yields the zero placement (the
	// Fig. 9 left edge).
	cold, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}, TimeLimit: time.Nanosecond, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Assignment == nil {
		t.Fatal("no assignment under time limit")
	}
	if cold.Objective != 0 {
		t.Errorf("cold 1ns objective = %v, want 0", cold.Objective)
	}
	if err := model.Verify(in, cold.Assignment, true); err != nil {
		t.Fatal(err)
	}
	// A warm-started solve under the same limit already has the greedy
	// incumbent.
	warm, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}, TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if warm.Objective <= 0 {
		t.Errorf("warm-started objective = %v, want > 0", warm.Objective)
	}
	// A node budget can only improve on the warm start.
	res2, err := SolveIP(in, IPOptions{Build: model.BuildOptions{Consolidate: true}, MaxNodes: initialNodes})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Objective < warm.Objective-1e-9 {
		t.Errorf("more time lost objective: %v vs %v", res2.Objective, warm.Objective)
	}
	if err := model.Verify(in, res2.Assignment, true); err != nil {
		t.Fatal(err)
	}
}

func TestUpdaterLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := smallInstance(rng, 6)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build, MaxNodes: initialNodes})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	liveBefore := u.Live()
	if len(liveBefore) == 0 {
		t.Fatal("nothing live after initial placement")
	}

	// Depart one live chain; its resources free up.
	departed := liveBefore[0]
	if err := u.Depart(departed); err != nil {
		t.Fatal(err)
	}
	if err := u.Depart(departed); err == nil {
		t.Error("double departure accepted")
	}
	_, _, mAfterDepart := u.Current()

	// A new candidate arrives and a replan places what fits.
	newChain := &model.Chain{ID: 1000, BandwidthGbps: 5, NFs: []model.ChainNF{{Type: 1, Rules: 200}}}
	if err := u.Arrive(newChain); err != nil {
		t.Fatal(err)
	}
	if err := u.Arrive(newChain); err == nil {
		t.Error("duplicate arrival accepted")
	}
	mAfterReplan, err := u.Replan(ReplanOptions{MaxNodes: replanNodes})
	if err != nil {
		t.Fatal(err)
	}
	if mAfterReplan.Objective < mAfterDepart.Objective-1e-9 {
		t.Errorf("replan decreased objective: %v -> %v", mAfterDepart.Objective, mAfterReplan.Objective)
	}

	// Survivors must keep their exact stages.
	_, a, _ := u.Current()
	inNow, _, _ := u.snapshot()
	for l, c := range inNow.Chains {
		if st, ok := u.live[c.ID]; ok {
			for j, want := range st {
				if a.Stages[l][j] != want {
					t.Errorf("chain %d box %d moved", c.ID, j)
				}
			}
		}
	}
}

func TestUpdaterAdjust(t *testing.T) {
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 4, EntriesPerBlock: 500, CapacityGbps: 100},
		NumTypes: 2,
		Recirc:   1,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}}},
		},
	}
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 1 changes its chain: departure + arrival semantics.
	repl := &model.Chain{ID: 2, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}, {Type: 2, Rules: 100}}}
	if err := u.Adjust(1, repl); err != nil {
		t.Fatal(err)
	}
	if len(u.Live()) != 0 || u.Waiting() != 1 {
		t.Fatalf("live=%v waiting=%d after adjust", u.Live(), u.Waiting())
	}
	m, err := u.Replan(ReplanOptions{MaxNodes: replanNodes})
	if err != nil {
		t.Fatal(err)
	}
	if m.Deployed != 1 || math.Abs(m.Objective-20) > 1e-9 {
		t.Errorf("post-adjust metrics: %+v", m)
	}
}

func TestMaybeReconfigure(t *testing.T) {
	// Start from a deliberately bad state: nothing placed although
	// everything fits. The threshold triggers a full reconfiguration.
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 4, EntriesPerBlock: 500, CapacityGbps: 100},
		NumTypes: 2,
		Recirc:   0,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 100}}},
			{ID: 2, BandwidthGbps: 20, NFs: []model.ChainNF{{Type: 2, Rules: 100}}},
		},
	}
	build := model.BuildOptions{Consolidate: true}
	empty := model.NewAssignment(in)
	for i := range empty.X {
		empty.X[i][0] = true
	}
	u, err := NewUpdater(in, empty, build)
	if err != nil {
		t.Fatal(err)
	}
	did, m, err := u.MaybeReconfigure(0.9, ReplanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !did {
		t.Fatal("reconfiguration not triggered from empty state")
	}
	if m.Deployed != 2 {
		t.Errorf("deployed = %d, want 2", m.Deployed)
	}
	// A second call finds the state already optimal.
	did2, _, err := u.MaybeReconfigure(0.9, ReplanOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if did2 {
		t.Error("reconfigured an already-optimal state")
	}
}

func TestGreedyPinnedAndReplanGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	in := smallInstance(rng, 6)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	live := u.Live()
	if len(live) == 0 {
		t.Fatal("nothing live")
	}
	if err := u.Depart(live[0]); err != nil {
		t.Fatal(err)
	}
	_, _, before := u.Current()
	m, err := u.ReplanGreedy()
	if err != nil {
		t.Fatal(err)
	}
	if m.Objective < before.Objective-1e-9 {
		t.Errorf("greedy replan decreased objective: %v -> %v", before.Objective, m.Objective)
	}
	// Survivors stayed put.
	inNow, aNow, _ := u.Current()
	for l, c := range inNow.Chains {
		if st, ok := u.live[c.ID]; ok {
			for j := range st {
				if aNow.Stages[l][j] != st[j] {
					t.Errorf("chain %d moved during greedy replan", c.ID)
				}
			}
		}
	}
}

func TestGreedyPinnedRespectsResources(t *testing.T) {
	// Pin a chain consuming most of the capacity; greedy must not overfill.
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 2, BlocksPerStage: 4, EntriesPerBlock: 500, CapacityGbps: 25},
		NumTypes: 2,
		Recirc:   0,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 20, NFs: []model.ChainNF{{Type: 1, Rules: 100}}},
			{ID: 2, BandwidthGbps: 20, NFs: []model.ChainNF{{Type: 2, Rules: 100}}},
		},
	}
	pinned := model.NewAssignment(in)
	pinned.X[0][0], pinned.X[1][1] = true, true
	pinned.Stages[0] = []int{0}
	res, err := SolveGreedy(in, GreedyOptions{Consolidate: true, Pinned: pinned})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Assignment.Deployed(0) {
		t.Error("pinned chain lost")
	}
	if res.Assignment.Deployed(1) {
		t.Error("capacity exceeded by greedy atop pinned load")
	}
	if res.Assignment.Stages[0][0] != 0 {
		t.Error("pinned chain moved")
	}
}
