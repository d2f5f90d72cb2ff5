package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sfp/internal/model"
)

// oldReplanGreedy is ReplanGreedy's former O(live) body, kept as the
// equivalence oracle: snapshot every chain, re-solve from scratch with the
// survivors pinned, verify the whole assignment, admit.
func oldReplanGreedy(u *Updater) (model.Metrics, error) {
	in, cur, ids := u.snapshot()
	res, err := SolveGreedy(in, GreedyOptions{Consolidate: u.build.Consolidate, Pinned: cur})
	if err != nil {
		return model.Metrics{}, err
	}
	if err := model.Verify(in, res.Assignment, u.build.Consolidate); err != nil {
		return model.Metrics{}, err
	}
	for l, id := range ids {
		if res.Assignment.Deployed(l) && u.waiting[id] {
			u.live[id] = append([]int(nil), res.Assignment.Stages[l]...)
			delete(u.waiting, id)
		}
	}
	for i := range res.Assignment.X {
		for s := range res.Assignment.X[i] {
			u.layout[i][s] = u.layout[i][s] || res.Assignment.X[i][s]
		}
	}
	return res.Metrics, nil
}

// bindingInstance is a switch on which both the backplane and the stage
// memory bind, with chains of non-representable bandwidths.
func bindingInstance(rng *rand.Rand, L int) *model.Instance {
	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 4, BlocksPerStage: 5, EntriesPerBlock: 500, CapacityGbps: 70},
		NumTypes: 4,
		Recirc:   1,
	}
	for id := 0; id < L; id++ {
		in.Chains = append(in.Chains, bindingChain(rng, id, in.NumTypes))
	}
	return in
}

func bindingChain(rng *rand.Rand, id, numTypes int) *model.Chain {
	c := &model.Chain{ID: id, BandwidthGbps: 0.3 + 14*rng.Float64()}
	for j := 1 + rng.Intn(4); j > 0; j-- {
		c.NFs = append(c.NFs, model.ChainNF{Type: 1 + rng.Intn(numTypes), Rules: 40 + rng.Intn(700)})
	}
	return c
}

func sortedIDs(m map[int][]int) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// nearMetrics compares metrics: counts exactly, float sums up to rounding
// (the ledger's sums are compensated, the recount's are not).
func nearMetrics(got, want model.Metrics) error {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(y)) }
	if got.Deployed != want.Deployed || got.EntriesUsed != want.EntriesUsed ||
		got.MaxPasses != want.MaxPasses || !reflect.DeepEqual(got.BlocksPerStage, want.BlocksPerStage) ||
		!near(got.Objective, want.Objective) || !near(got.ThroughputGbps, want.ThroughputGbps) ||
		!near(got.BackplaneGbps, want.BackplaneGbps) || !near(got.BlockUtil, want.BlockUtil) ||
		!near(got.EntryUtil, want.EntryUtil) {
		return fmt.Errorf("got %+v, want %+v", got, want)
	}
	return nil
}

// checkAccounts asserts the retained state equals a recount: the ledger's
// metrics equal ComputeMetrics, its check agrees with model.Verify, and the
// retained greedy state equals one re-summed from scratch.
func checkAccounts(t *testing.T, u *Updater, where string) {
	t.Helper()
	in, a, _ := u.snapshot()
	if err := nearMetrics(u.ledger.Metrics(), model.ComputeMetrics(in, a, u.build.Consolidate)); err != nil {
		t.Fatalf("%s: ledger metrics differ from the recount: %v", where, err)
	}
	if verr, lerr := model.Verify(in, a, u.build.Consolidate), u.ledger.Check(); (verr == nil) != (lerr == nil) {
		t.Fatalf("%s: Verify says %v, ledger check says %v", where, verr, lerr)
	}
	fresh := refUpdater(t, u).greedy
	g := u.greedy
	if !reflect.DeepEqual(g.rules, fresh.rules) || !reflect.DeepEqual(g.blocks, fresh.blocks) ||
		!reflect.DeepEqual(g.X, fresh.X) || math.Abs(g.capUsed-fresh.capUsed) > 1e-9 {
		t.Fatalf("%s: retained greedy state drifted from a re-summed one", where)
	}
}

// TestReplanGreedyMatchesSolveGreedyChurn is the O(batch) greedy replan's
// equivalence suite. Under a seeded mix of arrivals, departures,
// withdrawals and adjustments, with one adopted reconfiguration midway,
// every ReplanGreedy must place exactly what the former body (snapshot +
// SolveGreedy with survivors pinned) places from the same state, and the
// retained ledger and greedy state must equal a recount after every step.
func TestReplanGreedyMatchesSolveGreedyChurn(t *testing.T) {
	for _, cons := range []bool{true, false} {
		for seed := int64(0); seed < 4; seed++ {
			rng := rand.New(rand.NewSource(700 + seed))
			in := bindingInstance(rng, 14)
			build := model.BuildOptions{Consolidate: cons}
			initial, err := SolveGreedy(in, GreedyOptions{Consolidate: cons})
			if err != nil {
				t.Fatal(err)
			}
			u, err := NewUpdater(in, initial.Assignment, build)
			if err != nil {
				t.Fatal(err)
			}
			nextID := 1000
			maxLoad, fullStages := 0.0, 0
			for step := 0; step < 80; step++ {
				where := fmt.Sprintf("cons=%v seed %d step %d", cons, seed, step)
				live := sortedIDs(u.live)
				switch r := rng.Intn(10); {
				case r < 4:
					for n := 1 + rng.Intn(3); n > 0; n-- {
						if err := u.Arrive(bindingChain(rng, nextID, in.NumTypes)); err != nil {
							t.Fatal(err)
						}
						nextID++
					}
				case r < 6 && len(live) > 0:
					if err := u.Depart(live[rng.Intn(len(live))]); err != nil {
						t.Fatal(err)
					}
				case r < 8:
					u.Withdraw(u.ids[rng.Intn(len(u.ids))])
				case len(live) > 0:
					if err := u.Adjust(live[rng.Intn(len(live))], bindingChain(rng, nextID, in.NumTypes)); err != nil {
						t.Fatal(err)
					}
					nextID++
				}
				checkAccounts(t, u, where+" (before replan)")
				if step == 40 {
					did, _, err := u.MaybeReconfigure(100, ReplanOptions{DecomposeAbove: 1})
					if err != nil || !did {
						t.Fatalf("%s: reconfigure adopted=%v err=%v", where, did, err)
					}
					checkAccounts(t, u, where+" (after reconfigure)")
				}

				waiting := len(u.waiting)
				ref := refUpdater(t, u)
				mOld, err := oldReplanGreedy(ref)
				if err != nil {
					t.Fatalf("%s: former greedy replan: %v", where, err)
				}
				mNew, err := u.ReplanGreedy()
				if err != nil {
					t.Fatalf("%s: greedy replan: %v", where, err)
				}
				if !reflect.DeepEqual(u.live, ref.live) || !reflect.DeepEqual(u.waiting, ref.waiting) ||
					!reflect.DeepEqual(u.layout, ref.layout) {
					t.Fatalf("%s: placements differ from the former replan", where)
				}
				if err := nearMetrics(mNew, mOld); err != nil {
					t.Fatalf("%s: metrics differ from the former replan: %v", where, err)
				}
				st := u.LastReplan()
				if st.InModel != waiting || st.Admitted != len(u.Admitted()) || st.Admitted != waiting-len(u.waiting) {
					t.Fatalf("%s: stats %+v for %d waiting, %d admitted", where, st, waiting, len(u.Admitted()))
				}
				if st.Rebuilt != (step == 0 || step == 40) {
					t.Fatalf("%s: Rebuilt = %v", where, st.Rebuilt)
				}
				checkAccounts(t, u, where+" (after replan)")
				m := u.ledger.Metrics()
				maxLoad = math.Max(maxLoad, m.BackplaneGbps/in.Switch.CapacityGbps)
				for _, b := range m.BlocksPerStage {
					fullStages += b / in.Switch.BlocksPerStage
				}
			}
			// Both budgets must actually have bound during the run.
			if maxLoad < 0.95 || fullStages == 0 {
				t.Fatalf("cons=%v seed %d: backplane peaked at %.2f of C, %d full stage-steps",
					cons, seed, maxLoad, fullStages)
			}
		}
	}
}

// TestReplanGreedyChecksAdmissions: an admission the ledger refuses is
// undone — the chain stays waiting, the layout and accounts unchanged.
func TestReplanGreedyChecksAdmissions(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := bindingInstance(rng, 6)
	initial, err := SolveGreedy(in, GreedyOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	u, err := NewUpdater(in, initial.Assignment, model.BuildOptions{Consolidate: true})
	if err != nil {
		t.Fatal(err)
	}
	live := sortedIDs(u.live)
	if err := u.Depart(live[0]); err != nil {
		t.Fatal(err)
	}
	if err := u.Arrive(&model.Chain{ID: 99, BandwidthGbps: 1, NFs: []model.ChainNF{{Type: 1, Rules: 10}}}); err != nil {
		t.Fatal(err)
	}
	// Desynchronize the checker from the decider: the ledger believes the
	// backplane is full, the greedy state does not.
	full := &model.Chain{ID: -1, BandwidthGbps: in.Switch.CapacityGbps, NFs: []model.ChainNF{{Type: 1, Rules: 1}}}
	u.ledger.Add(full, []int{0})
	layout := u.Layout()
	if _, err := u.ReplanGreedy(); err == nil {
		t.Fatal("admission over the ledger's budget was accepted")
	}
	if _, live := u.live[99]; live || !u.waiting[99] || len(u.Admitted()) != 0 {
		t.Fatal("refused admission left the chain live")
	}
	if !reflect.DeepEqual(u.layout, layout) {
		t.Fatal("refused admission grew the layout")
	}
	checkAccounts(t, u, "after refusal")
	// The refusal re-summed the ledger from the live set, dropping the
	// phantom load; the same arrival is now admitted.
	if _, err := u.ReplanGreedy(); err != nil {
		t.Fatal(err)
	}
	if _, live := u.live[99]; !live {
		t.Fatal("arrival not admitted once the ledger was re-summed")
	}
}
