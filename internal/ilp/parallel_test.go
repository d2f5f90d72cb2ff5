package ilp

import (
	"math"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"sfp/internal/lp"
)

// TestParallelMatchesSerialKnapsack checks the tree search at one, two and
// four workers against brute-force enumeration: the optimal objective must
// agree on every instance (the argmax may differ when optima tie, so only
// values compare).
func TestParallelMatchesSerialKnapsack(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + 9*rng.Float64()
			weights[i] = 1 + 9*rng.Float64()
		}
		capacity := sum(weights) / (1.5 + 2*rng.Float64())
		want := bruteKnapsack(values, weights, capacity)
		for _, workers := range []int{1, 2, 4} {
			res, err := Solve(knapsack(values, weights, capacity), Options{Workers: workers})
			if err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			if res.Status != Optimal {
				t.Fatalf("seed %d workers %d: status %v, want Optimal", seed, workers, res.Status)
			}
			if math.Abs(res.Objective-want) > 1e-6 {
				t.Fatalf("seed %d workers %d: objective %v, brute force %v",
					seed, workers, res.Objective, want)
			}
			if res.Bound < res.Objective-1e-6 {
				t.Fatalf("seed %d workers %d: bound %v below objective %v",
					seed, workers, res.Bound, res.Objective)
			}
		}
	}
}

func TestParallelInfeasible(t *testing.T) {
	// x + y ≥ 3 with x, y ∈ {0, 1}: LP-feasible, integer-infeasible after
	// branching (x+y ≤ 2 in binaries is fine — force ≥ 3 over two vars).
	p := lp.NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, Op: lp.GE, RHS: 3})
	for _, workers := range []int{1, 4} {
		res, err := Solve(&Problem{LP: p.Clone(), IntVars: []int{0, 1}}, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers %d: %v", workers, err)
		}
		if res.Status != Infeasible {
			t.Fatalf("workers %d: status %v, want Infeasible", workers, res.Status)
		}
	}
}

func TestParallelMixedIntegerContinuous(t *testing.T) {
	// max 5x + 4y, 6x + 4y ≤ 24, x + 2y ≤ 6, x integer, y continuous.
	build := func() *Problem {
		p := lp.NewProblem(2)
		p.SetObjective(0, 5)
		p.SetObjective(1, 4)
		p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 6}, {Var: 1, Val: 4}}, Op: lp.LE, RHS: 24})
		p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 2}}, Op: lp.LE, RHS: 6})
		return &Problem{LP: p, IntVars: []int{0}}
	}
	par, err := Solve(build(), Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	// x=3, y=1.5 → 21: the LP optimum is already integral in x.
	if par.Status != Optimal || math.Abs(par.Objective-21) > 1e-6 {
		t.Fatalf("parallel %v obj %v, want optimal 21", par.Status, par.Objective)
	}
}

// TestParallelWarmStartAndHeuristic exercises the incumbent machinery under
// concurrency: a warm start plus a heuristic that proposes the warm point
// again (the accept path must dedup by objective, not crash).
func TestParallelWarmStartAndHeuristic(t *testing.T) {
	values := []float64{6, 5, 4, 3, 2, 7, 8, 1, 2, 5, 9, 4}
	weights := []float64{3, 2, 4, 1, 5, 6, 7, 2, 3, 4, 8, 2}
	capacity := sum(weights) / 2.2
	warm := make([]float64, len(values))
	warm[0], warm[1] = 1, 1 // feasible (weights 3+2 under any capacity here)
	heuristic := func(x []float64) []float64 {
		out := make([]float64, len(x))
		copy(out, warm)
		return out
	}
	want := bruteKnapsack(values, weights, capacity)
	par, err := Solve(knapsack(values, weights, capacity), Options{
		Workers:   4,
		WarmStart: warm,
		Heuristic: heuristic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if par.Status != Optimal || math.Abs(par.Objective-want) > 1e-6 {
		t.Fatalf("parallel %v obj %v, brute force %v", par.Status, par.Objective, want)
	}
	if len(par.Incumbents) == 0 {
		t.Fatal("no incumbents recorded")
	}
}

// TestParallelNodeLimitReturnsIncumbent checks that a node-limited parallel
// solve still reports a feasible incumbent and a valid bound.
func TestParallelNodeLimitReturnsIncumbent(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 18
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = 1 + 9*rng.Float64()
		weights[i] = 1 + 9*rng.Float64()
	}
	capacity := sum(weights) / 3
	warm := make([]float64, n) // empty knapsack is always feasible
	res, err := Solve(knapsack(values, weights, capacity), Options{
		Workers:   4,
		MaxNodes:  5,
		WarmStart: warm,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Feasible && res.Status != Optimal {
		t.Fatalf("status = %v, want Feasible or Optimal", res.Status)
	}
	if res.Bound < res.Objective-1e-6 {
		t.Fatalf("bound %v below incumbent %v", res.Bound, res.Objective)
	}
}

// TestParallelHeuristicWindowOnOneCPU pins the heuristic window of the
// tree search: a worker runs Options.Heuristic with the lock released, and
// its node must stay visible as in flight meanwhile. Otherwise a peer that
// pops the next node sees a frontier without it, and can stop at the node
// limit with a bound below the true optimum, certify a false optimum, or
// find the tree exhausted before the node's children are pushed. The
// heuristic sleeps so peers run inside the window even on one CPU; it skips
// the root, where every peer would still be idle. A lone worker runs the
// same unlocked window, so it is checked too.
func TestParallelHeuristicWindowOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = 1 + 9*rng.Float64()
			weights[i] = 1 + 9*rng.Float64()
		}
		capacity := sum(weights) / (1.5 + 2*rng.Float64())
		want := bruteKnapsack(values, weights, capacity)
		for _, workers := range []int{1, 2, 4} {
			for maxNodes := 0; maxNodes <= 12; maxNodes++ { // 0 = unlimited
				var calls atomic.Int32
				heuristic := func([]float64) []float64 {
					if calls.Add(1) > 1 {
						time.Sleep(20 * time.Microsecond)
					}
					return nil
				}
				res, err := Solve(knapsack(values, weights, capacity),
					Options{Workers: workers, Heuristic: heuristic, MaxNodes: maxNodes})
				if err != nil {
					t.Fatalf("seed %d workers %d: %v", seed, workers, err)
				}
				if res.Bound < want-1e-6 {
					t.Fatalf("seed %d workers %d maxNodes %d: bound %v below the optimum %v",
						seed, workers, maxNodes, res.Bound, want)
				}
				if (res.Status == Optimal || maxNodes == 0) && math.Abs(res.Objective-want) > 1e-6 {
					t.Fatalf("seed %d workers %d maxNodes %d: %v objective %v, brute force %v",
						seed, workers, maxNodes, res.Status, res.Objective, want)
				}
			}
		}
	}
}
