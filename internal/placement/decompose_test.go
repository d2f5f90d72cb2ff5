package placement

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

// contendedInstance samples a workload where the relaxed rows genuinely
// bind: the backplane admits roughly two thirds of the sampled bandwidth
// and the per-stage block budget roughly matches two thirds of the sampled
// rule demand, so the decomposition has to price both resources rather than
// trivially deploying everything.
func contendedInstance(seed int64, L, recirc int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	blocks := L / 4
	if blocks < 6 {
		blocks = 6
	}
	return &model.Instance{
		Switch: model.SwitchConfig{
			Stages:          8,
			BlocksPerStage:  blocks,
			EntriesPerBlock: 1000,
			CapacityGbps:    6 * float64(L),
		},
		NumTypes: 10,
		Recirc:   recirc,
		Chains:   traffic.GenChains(rng, L, traffic.ChainParams{MeanLen: 3}),
	}
}

// TestDecomposedFeasibleAcrossSeedsAndModes is the equivalence suite's
// feasibility half: for randomized instances across seeds, sizes,
// recirculation budgets, and both consolidation modes, the primal-repair
// output must verify against every original constraint (Verify checks
// Eqs. 4–9, the exact memory model, and Eq. 12 — none of the relaxed
// surrogate forms), and the dual bound must dominate the objective.
func TestDecomposedFeasibleAcrossSeedsAndModes(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		for _, cons := range []bool{true, false} {
			for _, L := range []int{20, 60} {
				for _, recirc := range []int{0, 2} {
					in := contendedInstance(seed, L, recirc)
					res, err := SolveDecomposed(in, DecomposeOptions{
						Build: model.BuildOptions{Consolidate: cons},
					})
					if err != nil {
						t.Fatalf("seed=%d cons=%v L=%d R=%d: %v", seed, cons, L, recirc, err)
					}
					if err := model.Verify(in, res.Assignment, cons); err != nil {
						t.Fatalf("seed=%d cons=%v L=%d R=%d: repaired placement infeasible: %v",
							seed, cons, L, recirc, err)
					}
					if res.Bound < res.Objective-1e-6 {
						t.Errorf("seed=%d cons=%v L=%d R=%d: bound %.6f below objective %.6f",
							seed, cons, L, recirc, res.Bound, res.Objective)
					}
					if res.Gap < 0 {
						t.Errorf("negative gap %v", res.Gap)
					}
					if res.DualIters < 1 {
						t.Errorf("no subgradient iterations ran")
					}
				}
			}
		}
	}
}

// TestDecomposedWithinReportedGapOfExact is the bounded-gap half of the
// equivalence suite, run against the exact IP as oracle. Weak duality —
// the Lagrangian bound dominating any feasible objective the IP finds —
// must hold whether or not the IP proves optimality, so it is asserted on
// every instance, including contended ones where branch and bound only
// returns an incumbent within its node budget. The two optimality-relative
// claims (decomposed never beats the optimum; exact optimum within the
// certified gap) apply only where the IP terminates "optimal". The budget
// is work, not time, so every host tests the same tree: 21 nodes is the
// fewest that still proves all six capMul-10 instances (seed 3 needs 20).
func TestDecomposedWithinReportedGapOfExact(t *testing.T) {
	proven := 0
	for seed := int64(1); seed <= 3; seed++ {
		for _, cons := range []bool{true, false} {
			// capMul 6 → backplane binds, IP stops at the budget with an
			// incumbent; capMul 10 → IP proves optimality within it.
			for _, capMul := range []float64{6, 10} {
				const L = 8
				in := contendedInstance(seed, L, 0)
				in.Switch.CapacityGbps = capMul * L
				exact, err := SolveIP(in, IPOptions{
					Build:    model.BuildOptions{Consolidate: cons},
					MaxNodes: 21,
				})
				if err != nil {
					t.Fatalf("exact: %v", err)
				}
				dec, err := SolveDecomposed(in, DecomposeOptions{
					Build: model.BuildOptions{Consolidate: cons},
				})
				if err != nil {
					t.Fatalf("decomposed: %v", err)
				}
				if dec.Bound < exact.Objective-1e-6 {
					t.Errorf("seed=%d cons=%v capMul=%v: dual bound %.6f below exact objective %.6f (weak duality violated)",
						seed, cons, capMul, dec.Bound, exact.Objective)
				}
				if exact.Status != "optimal" {
					continue
				}
				proven++
				if dec.Objective > exact.Objective+1e-6 {
					t.Errorf("seed=%d cons=%v capMul=%v: decomposed objective %.6f exceeds exact optimum %.6f",
						seed, cons, capMul, dec.Objective, exact.Objective)
				}
				slack := dec.Gap*dec.Objective + 1e-6
				if exact.Objective-dec.Objective > slack {
					t.Errorf("seed=%d cons=%v capMul=%v: exact %.6f vs decomposed %.6f outside reported gap %.4f",
						seed, cons, capMul, exact.Objective, dec.Objective, dec.Gap)
				}
			}
		}
	}
	t.Logf("%d of 12 exact solves proven optimal", proven)
	if proven < 6 {
		t.Errorf("%d of 6 capMul-10 instances reached a proven optimum; optimality-relative claims under-tested", proven)
	}
}

// TestDecomposedDeterministicAcrossWorkers pins the parallel-pricing
// contract: identical results at any worker count.
func TestDecomposedDeterministicAcrossWorkers(t *testing.T) {
	in := contendedInstance(7, 60, 2)
	var ref *Result
	for _, workers := range []int{1, 4} {
		res, err := SolveDecomposed(in, DecomposeOptions{
			Build:   model.BuildOptions{Consolidate: true},
			Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if res.Objective != ref.Objective || res.Bound != ref.Bound || res.DualIters != ref.DualIters {
			t.Fatalf("workers=%d diverged: obj %v vs %v, bound %v vs %v, iters %d vs %d",
				workers, res.Objective, ref.Objective, res.Bound, ref.Bound, res.DualIters, ref.DualIters)
		}
		for l := range in.Chains {
			for j := range res.Assignment.Stages[l] {
				if res.Assignment.Stages[l][j] != ref.Assignment.Stages[l][j] {
					t.Fatalf("workers=%d: chain %d stage %d differs", workers, l, j)
				}
			}
		}
	}
}

// TestDecomposedEdgeCases exercises undeployable chains: a box larger than
// a whole stage, bandwidth beyond the backplane, and a chain longer than
// the virtual pipeline. All must stay undeployed in a placement that still
// verifies, without poisoning the bound.
func TestDecomposedEdgeCases(t *testing.T) {
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 4, BlocksPerStage: 4, EntriesPerBlock: 100, CapacityGbps: 50},
		NumTypes: 3,
		Recirc:   0,
		Chains: []*model.Chain{
			{ID: 1, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 50}, {Type: 2, Rules: 50}}},
			{ID: 2, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 5000}}},                                                                                       // box > stage
			{ID: 3, BandwidthGbps: 500, NFs: []model.ChainNF{{Type: 2, Rules: 50}}},                                                                                        // T > C
			{ID: 4, BandwidthGbps: 10, NFs: []model.ChainNF{{Type: 1, Rules: 10}, {Type: 2, Rules: 10}, {Type: 3, Rules: 10}, {Type: 1, Rules: 10}, {Type: 2, Rules: 10}}}, // J > K
		},
	}
	res, err := SolveDecomposed(in, DecomposeOptions{Build: model.BuildOptions{Consolidate: true}})
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Verify(in, res.Assignment, true); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if !res.Assignment.Deployed(0) {
		t.Error("deployable chain 1 not deployed")
	}
	for _, l := range []int{1, 2, 3} {
		if res.Assignment.Deployed(l) {
			t.Errorf("undeployable chain %d deployed", in.Chains[l].ID)
		}
	}
	if res.Gap != 0 {
		t.Errorf("single deployable chain should close the gap, got %v", res.Gap)
	}
}

// TestMaybeReconfigureDecomposedPath asserts the threshold routing: above
// DecomposeAbove the full re-optimization runs the decomposition, surfaces
// its certified gap in ReplanStats, and leaves the updater in a consistent
// adopted state.
func TestMaybeReconfigureDecomposedPath(t *testing.T) {
	in := contendedInstance(11, 40, 1)
	gr, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, gr.Assignment, model.BuildOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	did, m, err := u.MaybeReconfigure(5, ReplanOptions{DecomposeAbove: 1, SolverWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := u.LastReplan()
	if !st.Decomposed || !st.FullRebuild {
		t.Fatalf("expected decomposed full rebuild, got %+v", st)
	}
	if st.Gap < 0 {
		t.Errorf("negative gap in stats: %v", st.Gap)
	}
	if st.InModel != len(in.Chains) {
		t.Errorf("InModel = %d, want %d", st.InModel, len(in.Chains))
	}
	if !did {
		t.Fatalf("reconfiguration not adopted at threshold 5 (cur=%v)", m.Objective)
	}
	cin, ca, cm := u.Current()
	if err := model.Verify(cin, ca, true); err != nil {
		t.Fatalf("adopted state fails verification: %v", err)
	}
	if cm.Objective != m.Objective {
		t.Errorf("current objective %v != adopted %v", cm.Objective, m.Objective)
	}
	if len(u.Live())+u.Waiting() != len(in.Chains) {
		t.Errorf("live %d + waiting %d != %d chains", len(u.Live()), u.Waiting(), len(in.Chains))
	}

	// The exact path must still be reachable with DecomposeAbove<0 and must
	// report Decomposed=false. Its root LP needs about 2 150 pivots; the
	// 900-pivot cap ends it early (where a 2 s clock cap used to), so the
	// test stays fast and its result is the same on every host. The stats
	// contract holds whether or not the IP finishes.
	did, m, err = u.MaybeReconfigure(0, ReplanOptions{DecomposeAbove: -1, MaxNodes: 20, LPMaxIters: 900})
	if err != nil {
		t.Fatal(err)
	}
	st = u.LastReplan()
	t.Logf("exact path: adopted=%v objective=%v gap=%v nodes=%d", did, m.Objective, st.Gap, st.Nodes)
	if st.Decomposed {
		t.Error("DecomposeAbove<0 still routed to the decomposition")
	}
	if st.Gap < 0 {
		t.Errorf("negative exact-path gap: %v", st.Gap)
	}
}

// TestDecomposedGapQuality is a regression net on bound quality. On the
// contended 200-chain instance it is coarse: non-consolidated pricing is
// exact per box (whole blocks vs B), so the dual converges tight; the
// consolidated mode prices the Σ rules ≤ B·E surrogate, which ignores up
// to NumTypes−1 part-filled blocks of waste per stage, so its certified gap
// is structurally looser — the threshold reflects that. The 1000-chain case
// is the BenchmarkFullSolveDecomp1k instance and holds the 3% line on the
// non-consolidated build. The gap is a function of the seed alone, not of
// the host, and every placement is re-verified.
func TestDecomposedGapQuality(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		L, recirc int
		cons      bool
		maxGap    float64
	}{
		{3, 200, 1, false, 0.05},
		{3, 200, 1, true, 0.20},
		{fullSolveSeed, 1000, 0, false, 0.03},
	} {
		in := contendedInstance(tc.seed, tc.L, tc.recirc)
		res, err := SolveDecomposed(in, DecomposeOptions{Build: model.BuildOptions{Consolidate: tc.cons}})
		if err != nil {
			t.Fatal(err)
		}
		if err := model.Verify(in, res.Assignment, tc.cons); err != nil {
			t.Errorf("L=%d cons=%v: placement infeasible: %v", tc.L, tc.cons, err)
		}
		if res.Gap > tc.maxGap {
			t.Errorf("L=%d cons=%v: certified gap %.2f%% above %.0f%%", tc.L, tc.cons, 100*res.Gap, 100*tc.maxGap)
		}
		t.Log(fmt.Sprintf("L=%d cons=%v: obj=%.1f bound=%.1f gap=%.2f%% iters=%d elapsed=%v",
			tc.L, tc.cons, res.Objective, res.Bound, 100*res.Gap, res.DualIters, res.Elapsed))
	}
}

// TestRadixOrderMatchesComparisonSort checks the repair's radix order
// against a comparison sort on (value descending, index ascending) over
// ascending index subsets: empty, single, and 10k-long inputs, heavy ties,
// and values spread over every exponent from just above the 1e-9 pricing
// floor to near 1e300. One radixOrder serves every case, so buffer reuse
// across lengths is covered too.
func TestRadixOrderMatchesComparisonSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	floor := math.Nextafter(1e-9, 1)
	gens := map[string]func() float64{
		"ties": func() float64 {
			return []float64{floor, 0.5, 1, 1, 3.25, 1e300}[rng.Intn(6)]
		},
		"exponents": func() float64 {
			switch rng.Intn(10) {
			case 0:
				return floor
			case 1:
				return math.Nextafter(1e300, math.Inf(1))
			case 2:
				return 1e300
			}
			return math.Pow(10, -9+309*rng.Float64())
		},
		"narrow": func() float64 { return 100 + rng.Float64() },
	}
	var r radixOrder
	for _, name := range []string{"ties", "exponents", "narrow"} {
		for _, n := range []int{10000, 0, 1, 2, 37, 10000} {
			val := make([]float64, n+n/3)
			for l := range val {
				val[l] = gens[name]()
			}
			// An ascending subset of the chain indices, like the priced set.
			var idx []int
			for l := range val {
				if len(idx) < n && (rng.Intn(4) > 0 || len(val)-l <= n-len(idx)) {
					idx = append(idx, l)
				}
			}
			want := slices.Clone(idx)
			slices.SortFunc(want, func(a, b int) int {
				if c := cmp.Compare(val[b], val[a]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			r.sort(idx, val)
			if !slices.Equal(idx, want) {
				t.Fatalf("%s n=%d: radix order differs from the comparison sort", name, n)
			}
		}
	}
}
