package placement

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"sfp/internal/model"
)

// refUpdater deep-copies an updater's logical state (chains, live set,
// waiting set, layout) into a fresh Updater with no retained fast state, so
// the reference FullRebuild replan runs from identical inputs. Lockstep
// comparison of two long-lived updaters is invalid — alternate optima
// diverge — so the oracle is rebuilt per step instead.
func refUpdater(t *testing.T, u *Updater) *Updater {
	t.Helper()
	in, a, _ := u.snapshot()
	ref, err := NewUpdater(in, a, u.build)
	if err != nil {
		t.Fatal(err)
	}
	return ref
}

// churnChain makes a random arrival for the churn tests.
func churnChain(rng *rand.Rand, id, numTypes int) *model.Chain {
	J := 1 + rng.Intn(3)
	c := &model.Chain{ID: id, BandwidthGbps: 1 + float64(rng.Intn(15))}
	for j := 0; j < J; j++ {
		c.NFs = append(c.NFs, model.ChainNF{Type: 1 + rng.Intn(numTypes), Rules: 50 + rng.Intn(400)})
	}
	return c
}

// TestReplanFastMatchesFullChurn is the tentpole equivalence suite: under
// randomized arrive/depart churn, the default incremental replan must reach
// the same objective as the full-rebuild reference over the same state, and
// every produced placement must pass model.Verify (the Updater verifies
// internally and errors otherwise).
func TestReplanFastMatchesFullChurn(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		rng := rand.New(rand.NewSource(600 + seed))
		in := smallInstance(rng, 6)
		build := model.BuildOptions{Consolidate: true}
		initial, err := SolveIP(in, IPOptions{Build: build, TimeLimit: 20 * time.Second})
		if err != nil {
			t.Fatal(err)
		}
		u, err := NewUpdater(in, initial.Assignment, build)
		if err != nil {
			t.Fatal(err)
		}
		nextID := 5000
		for step := 0; step < 6; step++ {
			// Churn: 1–2 arrivals, sometimes a departure.
			for n := 0; n < 1+rng.Intn(2); n++ {
				if err := u.Arrive(churnChain(rng, nextID, in.NumTypes)); err != nil {
					t.Fatal(err)
				}
				nextID++
			}
			if live := u.Live(); len(live) > 1 && rng.Intn(2) == 0 {
				if err := u.Depart(live[rng.Intn(len(live))]); err != nil {
					t.Fatal(err)
				}
			}

			ref := refUpdater(t, u)
			mFull, err := ref.Replan(ReplanOptions{FullRebuild: true, TimeLimit: 30 * time.Second})
			if err != nil {
				t.Fatalf("seed %d step %d: full replan: %v", seed, step, err)
			}
			mFast, err := u.Replan(ReplanOptions{TimeLimit: 30 * time.Second})
			if err != nil {
				t.Fatalf("seed %d step %d: fast replan: %v", seed, step, err)
			}
			if math.Abs(mFast.Objective-mFull.Objective) > 1e-6 {
				t.Fatalf("seed %d step %d: fast objective %v, full %v",
					seed, step, mFast.Objective, mFull.Objective)
			}
			if u.LastReplan().FullRebuild {
				t.Errorf("seed %d step %d: default replan fell back to full rebuild", seed, step)
			}
			// Both paths keep the retained greedy state and ledger equal
			// to a recount: the fast path patches them, the full one
			// re-sums them.
			checkAccounts(t, u, fmt.Sprintf("seed %d step %d fast", seed, step))
			checkAccounts(t, ref, fmt.Sprintf("seed %d step %d full", seed, step))
			// Survivor pinning invariant: live chains never move.
			_, a, _ := u.snapshot()
			inNow, _, _ := u.snapshot()
			for l, c := range inNow.Chains {
				if st, ok := u.live[c.ID]; ok {
					for j, want := range st {
						if a.Stages[l][j] != want {
							t.Fatalf("seed %d step %d: chain %d box %d moved", seed, step, c.ID, j)
						}
					}
				}
			}
		}
	}
}

// TestReplanFastEdgeCases covers the degenerate replans: an empty waiting
// set must short-circuit without solving, and an all-departed updater must
// replan the whole waiting set from an empty switch.
func TestReplanFastEdgeCases(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in := smallInstance(rng, 5)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the waiting set, then replan again: nothing to do.
	if _, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	for _, id := range append([]int(nil), u.ids...) {
		if u.waiting[id] {
			u.Withdraw(id)
		}
	}
	m1, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if st := u.LastReplan(); st.Nodes != 0 || st.Admitted != 0 {
		t.Errorf("empty-waiting replan solved: %+v", st)
	}

	// Everyone departs; the state collapses to an empty switch.
	for _, id := range u.Live() {
		if err := u.Depart(id); err != nil {
			t.Fatal(err)
		}
	}
	m2, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Objective != 0 || m2.Deployed != 0 {
		t.Errorf("all-departed metrics: %+v (was %+v)", m2, m1)
	}
	// New arrivals onto the empty switch place again.
	if err := u.Arrive(churnChain(rng, 9000, in.NumTypes)); err != nil {
		t.Fatal(err)
	}
	m3, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Deployed != 1 {
		t.Errorf("arrival on empty switch not placed: %+v", m3)
	}
}

// TestReplanEncodesOnce pins the delta-encoding guarantee (the replan
// counterpart of TestSolveApproxEncodesOnce): N consecutive replans with
// arrivals in between perform exactly one residual build and zero full
// model builds — every subsequent replan patches the retained program.
func TestReplanEncodesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	in := smallInstance(rng, 5)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 5
	fullBefore := model.BuildCalls()
	residBefore := model.ResidualBuilds()
	for n := 0; n < rounds; n++ {
		if err := u.Arrive(churnChain(rng, 7000+n, in.NumTypes)); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
			t.Fatal(err)
		}
	}
	if d := model.BuildCalls() - fullBefore; d != 0 {
		t.Errorf("%d replans performed %d full model builds, want 0", rounds, d)
	}
	if d := model.ResidualBuilds() - residBefore; d != 1 {
		t.Errorf("%d replans performed %d residual builds, want exactly 1", rounds, d)
	}
}

// TestReplanWarmStarts asserts the cross-replan warm start engages: after
// the first fast replan retains a root basis, subsequent replans re-enter
// the dual simplex from it, including across Arrive deltas (the retained
// basis is grown with lp.Basis.Extend).
func TestReplanWarmStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	in := smallInstance(rng, 5)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	warmed := 0
	for n := 0; n < 3; n++ {
		if err := u.Arrive(churnChain(rng, 8000+n, in.NumTypes)); err != nil {
			t.Fatal(err)
		}
		if _, err := u.Replan(ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if st := u.LastReplan(); st.WarmStarted {
			warmed++
		}
		if st := u.LastReplan(); st.Rebuilt {
			t.Errorf("replan %d rebuilt the residual", n)
		}
	}
	if warmed == 0 {
		t.Error("no replan warm-started across 3 arrive/replan rounds")
	}
}

// TestMaybeReconfigureWarmStarts asserts satellite (a): a second full
// re-optimization over an unchanged chain set re-enters from the first
// solve's root basis.
func TestMaybeReconfigureWarmStarts(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	in := smallInstance(rng, 5)
	build := model.BuildOptions{Consolidate: true}
	initial, err := SolveIP(in, IPOptions{Build: build, TimeLimit: 20 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, build)
	if err != nil {
		t.Fatal(err)
	}
	// First call records the root basis (threshold 0 never adopts).
	if _, _, err := u.MaybeReconfigure(0, ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if u.fullBasis == nil {
		t.Skip("first full solve produced no root basis snapshot")
	}
	if _, _, err := u.MaybeReconfigure(0, ReplanOptions{TimeLimit: 20 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if !u.LastReplan().WarmStarted {
		t.Error("second MaybeReconfigure over unchanged chains solved cold")
	}
}
