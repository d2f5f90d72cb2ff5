package ilp

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"sfp/internal/lp"
)

const eps = 1e-5

// knapsack builds a 0/1 knapsack MIP.
func knapsack(values, weights []float64, cap float64) *Problem {
	n := len(values)
	p := lp.NewProblem(n)
	coeffs := make([]lp.Coef, n)
	ints := make([]int, n)
	for i := 0; i < n; i++ {
		p.SetObjective(i, values[i])
		p.SetBounds(i, 0, 1)
		coeffs[i] = lp.Coef{Var: i, Val: weights[i]}
		ints[i] = i
	}
	p.AddRow(lp.Row{Coeffs: coeffs, Op: lp.LE, RHS: cap})
	return &Problem{LP: p, IntVars: ints}
}

// bruteKnapsack enumerates all subsets (n ≤ 20).
func bruteKnapsack(values, weights []float64, cap float64) float64 {
	n := len(values)
	best := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		v, w := 0.0, 0.0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				v += values[i]
				w += weights[i]
			}
		}
		if w <= cap && v > best {
			best = v
		}
	}
	return best
}

func TestKnapsackExact(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 3, 4, 1}
	res, err := Solve(knapsack(values, weights, 10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKnapsack(values, weights, 10)
	if res.Status != Optimal || math.Abs(res.Objective-want) > eps {
		t.Errorf("got %v obj %v, want optimal %v", res.Status, res.Objective, want)
	}
	// Solution must be integral.
	for i, x := range res.X[:len(values)] {
		if math.Abs(x-math.Round(x)) > 1e-6 {
			t.Errorf("x[%d] = %v not integral", i, x)
		}
	}
	if res.Gap() > 1e-6 {
		t.Errorf("gap = %v", res.Gap())
	}
}

// Property: B&B matches brute force on random small knapsacks.
func TestKnapsackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(10)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = float64(1 + rng.Intn(20))
			weights[i] = float64(1 + rng.Intn(10))
		}
		cap := sum(weights) * (0.3 + 0.4*rng.Float64())
		res, err := Solve(knapsack(values, weights, cap), Options{})
		if err != nil || res.Status != Optimal {
			return false
		}
		return math.Abs(res.Objective-bruteKnapsack(values, weights, cap)) < eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// max 2x + y, x integer ≤ 2.5, y continuous ≤ 0.7, x + y ≤ 3.
	p := lp.NewProblem(2)
	p.SetObjective(0, 2)
	p.SetObjective(1, 1)
	p.SetBounds(0, 0, 2.5)
	p.SetBounds(1, 0, 0.7)
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, Op: lp.LE, RHS: 3})
	res, err := Solve(&Problem{LP: p, IntVars: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// x=2, y=0.7 → 4.7.
	if res.Status != Optimal || math.Abs(res.Objective-4.7) > eps {
		t.Errorf("got %v obj %v, want optimal 4.7", res.Status, res.Objective)
	}
}

func TestInfeasibleMIP(t *testing.T) {
	// x integer, 0.2 ≤ x ≤ 0.8 → no integer point.
	p := lp.NewProblem(1)
	p.SetObjective(0, 1)
	p.SetBounds(0, 0.2, 0.8)
	res, err := Solve(&Problem{LP: p, IntVars: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestInfeasibleLPRoot(t *testing.T) {
	p := lp.NewProblem(1)
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}}, Op: lp.GE, RHS: 2})
	p.SetBounds(0, 0, 1)
	res, err := Solve(&Problem{LP: p, IntVars: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Errorf("status = %v, want infeasible", res.Status)
	}
}

func TestTimeLimitReturnsIncumbent(t *testing.T) {
	// A large random knapsack where a 0 time budget forces limit status.
	rng := rand.New(rand.NewSource(42))
	n := 40
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()*99 + 1
		weights[i] = rng.Float64()*9 + 1
	}
	prob := knapsack(values, weights, sum(weights)/2)
	res, err := Solve(prob, Options{TimeLimit: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Limit && res.Status != Feasible {
		t.Errorf("status = %v, want a limit status", res.Status)
	}
	// With a generous limit the same instance solves to optimality.
	res2, err := Solve(prob, Options{TimeLimit: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != Optimal {
		t.Errorf("status = %v, want optimal", res2.Status)
	}
	if len(res2.Incumbents) == 0 {
		t.Error("no incumbent series recorded")
	}
	// Incumbent series must be strictly improving.
	for i := 1; i < len(res2.Incumbents); i++ {
		if res2.Incumbents[i].Objective <= res2.Incumbents[i-1].Objective {
			t.Error("incumbent series not improving")
		}
	}
}

// TestTimeLimitOnOpenTree checks that a TimeLimit holds when the tree is
// far from closed: a strongly correlated 60-item knapsack is still open
// after seconds of search, yet a 50 ms solve must return within 100 ms with
// a limit status and a bound no lower than its incumbent.
func TestTimeLimitOnOpenTree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 60
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		weights[i] = float64(1 + rng.Intn(10000))
		values[i] = weights[i] + 1000
	}
	start := time.Now()
	res, err := Solve(knapsack(values, weights, sum(weights)/2),
		Options{TimeLimit: 50 * time.Millisecond})
	took := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if took > 100*time.Millisecond {
		t.Errorf("returned after %v, limit 50ms", took)
	}
	if res.Status != Feasible && res.Status != Limit {
		t.Errorf("status %v, want a limit status", res.Status)
	}
	if res.Bound < res.Objective {
		t.Errorf("bound %v below incumbent %v", res.Bound, res.Objective)
	}
}

func TestOnIncumbentCallback(t *testing.T) {
	var seen []float64
	values := []float64{5, 4, 3}
	weights := []float64{2, 3, 1}
	_, err := Solve(knapsack(values, weights, 4), Options{
		OnIncumbent: func(obj float64, x []float64) { seen = append(seen, obj) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) == 0 {
		t.Error("callback never fired")
	}
	if !sort.Float64sAreSorted(seen) {
		t.Error("callback objectives not improving")
	}
}

func TestNodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 30
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64() + 1
		weights[i] = rng.Float64() + 1
	}
	res, err := Solve(knapsack(values, weights, sum(weights)/2), Options{MaxNodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Nodes > 3 {
		t.Errorf("nodes = %d, want ≤ 3", res.Nodes)
	}
	if res.Status == Optimal {
		// Only legitimate if it genuinely closed the gap in ≤3 nodes.
		if res.Gap() > 1e-6 {
			t.Error("claimed optimal with open gap")
		}
	}
}

func TestBoundIsValid(t *testing.T) {
	// The reported bound must never be below the true optimum.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(8)
		values := make([]float64, n)
		weights := make([]float64, n)
		for i := range values {
			values[i] = float64(1 + rng.Intn(15))
			weights[i] = float64(1 + rng.Intn(8))
		}
		cap := sum(weights) / 2
		res, err := Solve(knapsack(values, weights, cap), Options{})
		if err != nil {
			return false
		}
		want := bruteKnapsack(values, weights, cap)
		return res.Bound >= want-eps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func BenchmarkKnapsack20(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	n := 20
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()*20 + 1
		weights[i] = rng.Float64()*10 + 1
	}
	prob := knapsack(values, weights, sum(weights)/2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Solve(prob, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCeilVarsCompletion: an auxiliary counter Y ≥ x/3 with budget Y ≤ 2
// must be completed by ceiling, never branched. x integer in [0, 10],
// objective x - εY: optimum x=6, Y=2.
func TestCeilVarsCompletion(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, -1e-7)
	p.SetBounds(0, 0, 10)
	p.SetBounds(1, 0, 2)
	// Y ≥ x/3  ⇔  x - 3Y ≤ 0.
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: -3}}, Op: lp.LE, RHS: 0})
	res, err := Solve(&Problem{LP: p, IntVars: []int{0, 1}}, Options{CeilVars: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal {
		t.Fatalf("status = %v", res.Status)
	}
	if math.Abs(res.X[0]-6) > 1e-6 || math.Abs(res.X[1]-2) > 1e-6 {
		t.Errorf("X = %v, want [6 2]", res.X)
	}
}

// TestCeilVarsPruneInfeasible: when even the ceiling completion breaks the
// budget, the instance is infeasible — deployment x=1 forces Y ≥ 0.4 → 1,
// but Y ≤ 0. The only integer-feasible point is x=0.
func TestCeilVarsPruneInfeasible(t *testing.T) {
	p := lp.NewProblem(2)
	p.SetObjective(0, 5)
	p.SetObjective(1, -1e-7)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 0) // zero block budget
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 0.4}, {Var: 1, Val: -1}}, Op: lp.LE, RHS: 0})
	res, err := Solve(&Problem{LP: p, IntVars: []int{0, 1}}, Options{CeilVars: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-0) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal 0 (x forced to 0)", res.Status, res.Objective)
	}
}

// TestHeuristicSeedsIncumbent: a heuristic returning the known optimum must
// terminate the search immediately with that incumbent.
func TestHeuristicSeedsIncumbent(t *testing.T) {
	values := []float64{10, 13, 7, 8, 2}
	weights := []float64{5, 6, 3, 4, 1}
	prob := knapsack(values, weights, 10)
	want := bruteKnapsack(values, weights, 10)
	calls := 0
	heuristic := func(x []float64) []float64 {
		calls++
		// The optimal subset for this instance: items 1 and 3 (13+8=21,
		// weight 10).
		out := make([]float64, prob.LP.NumVars())
		out[1], out[3] = 1, 1
		return out
	}
	res, err := Solve(prob, Options{Heuristic: heuristic})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("heuristic never called")
	}
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal %v", res.Status, res.Objective, want)
	}
	if len(res.Incumbents) == 0 {
		t.Error("heuristic incumbent not recorded")
	}
}

// TestHeuristicRejectsInfeasible: a heuristic returning garbage must be
// ignored, not adopted.
func TestHeuristicRejectsInfeasible(t *testing.T) {
	values := []float64{5, 4}
	weights := []float64{3, 2}
	prob := knapsack(values, weights, 4)
	res, err := Solve(prob, Options{Heuristic: func(x []float64) []float64 {
		out := make([]float64, prob.LP.NumVars())
		out[0], out[1] = 1, 1 // weight 5 > 4: infeasible
		return out
	}})
	if err != nil {
		t.Fatal(err)
	}
	want := bruteKnapsack(values, weights, 4)
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Errorf("got %v obj %v, want optimal %v", res.Status, res.Objective, want)
	}
}

// TestWarmStartRejected: an infeasible warm start must not become the
// incumbent.
func TestWarmStartRejected(t *testing.T) {
	values := []float64{5, 4}
	weights := []float64{3, 2}
	prob := knapsack(values, weights, 4)
	bad := []float64{1, 1} // infeasible
	res, err := Solve(prob, Options{WarmStart: bad})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > bruteKnapsack(values, weights, 4)+1e-9 {
		t.Errorf("objective %v exceeds true optimum", res.Objective)
	}
}

// TestPriorityVarsBranchFirst: with a priority list, the first branch is on
// the listed variable even if another is more fractional.
func TestPriorityVarsBranchFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 12
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()*9 + 1
		weights[i] = rng.Float64()*5 + 1
	}
	prob := knapsack(values, weights, sum(weights)/2)
	want := bruteKnapsack(values, weights, sum(weights)/2)
	res, err := Solve(prob, Options{PriorityVars: []int{0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-5 {
		t.Errorf("priority branching broke optimality: %v vs %v", res.Objective, want)
	}
}

// TestTraceOutput: the node trace emits one line per explored node.
func TestTraceOutput(t *testing.T) {
	var sb strings.Builder
	prob := knapsack([]float64{3, 5, 4}, []float64{2, 4, 3}, 5)
	res, err := Solve(prob, Options{Trace: &sb})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(sb.String(), "\n")
	if lines != res.Nodes {
		t.Errorf("trace lines = %d, nodes = %d", lines, res.Nodes)
	}
	if !strings.Contains(sb.String(), "lp=optimal") {
		t.Error("trace missing LP status")
	}
}

// The TestParallel* names below predate the serial search; they are kept
// so test histories stay continuous. Each checks the one serial loop.

// randomKnapsack draws an 8–15 item knapsack with real values and weights.
func randomKnapsack(seed int64) (values, weights []float64, capacity float64) {
	rng := rand.New(rand.NewSource(seed))
	n := 8 + rng.Intn(8)
	values = make([]float64, n)
	weights = make([]float64, n)
	for i := range values {
		values[i] = 1 + 9*rng.Float64()
		weights[i] = 1 + 9*rng.Float64()
	}
	return values, weights, sum(weights) / (1.5 + 2*rng.Float64())
}

// TestParallelMatchesSerialKnapsack checks the tree search on random
// knapsacks with real-valued weights against brute-force enumeration: each
// solve must end Optimal at the enumerated value, with a bound no lower.
func TestParallelMatchesSerialKnapsack(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		values, weights, capacity := randomKnapsack(seed)
		want := bruteKnapsack(values, weights, capacity)
		res, err := Solve(knapsack(values, weights, capacity), Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Status != Optimal {
			t.Fatalf("seed %d: status %v, want Optimal", seed, res.Status)
		}
		if math.Abs(res.Objective-want) > 1e-6 {
			t.Fatalf("seed %d: objective %v, brute force %v", seed, res.Objective, want)
		}
		if res.Bound < res.Objective-1e-6 {
			t.Fatalf("seed %d: bound %v below objective %v", seed, res.Bound, res.Objective)
		}
	}
}

func TestParallelInfeasible(t *testing.T) {
	// x + y ≥ 3 over two binaries: no point, integral or not.
	p := lp.NewProblem(2)
	p.SetObjective(0, 1)
	p.SetObjective(1, 1)
	p.SetBounds(0, 0, 1)
	p.SetBounds(1, 0, 1)
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 1}}, Op: lp.GE, RHS: 3})
	res, err := Solve(&Problem{LP: p, IntVars: []int{0, 1}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Infeasible {
		t.Fatalf("status %v, want Infeasible", res.Status)
	}
}

func TestParallelMixedIntegerContinuous(t *testing.T) {
	// max 5x + 4y, 6x + 4y ≤ 24, x + 2y ≤ 6, x integer, y continuous.
	p := lp.NewProblem(2)
	p.SetObjective(0, 5)
	p.SetObjective(1, 4)
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 6}, {Var: 1, Val: 4}}, Op: lp.LE, RHS: 24})
	p.AddRow(lp.Row{Coeffs: []lp.Coef{{Var: 0, Val: 1}, {Var: 1, Val: 2}}, Op: lp.LE, RHS: 6})
	res, err := Solve(&Problem{LP: p, IntVars: []int{0}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// x=3, y=1.5 → 21: the LP optimum is already integral in x.
	if res.Status != Optimal || math.Abs(res.Objective-21) > 1e-6 {
		t.Fatalf("got %v obj %v, want optimal 21", res.Status, res.Objective)
	}
}

// TestParallelWarmStartAndHeuristic: a warm start plus a heuristic that
// proposes the warm point again (the accept path must dedup by objective)
// still reaches the optimum and records the incumbent series.
func TestParallelWarmStartAndHeuristic(t *testing.T) {
	values := []float64{6, 5, 4, 3, 2, 7, 8, 1, 2, 5, 9, 4}
	weights := []float64{3, 2, 4, 1, 5, 6, 7, 2, 3, 4, 8, 2}
	capacity := sum(weights) / 2.2
	warm := make([]float64, len(values))
	warm[0], warm[1] = 1, 1 // feasible (weights 3+2 under any capacity here)
	heuristic := func(x []float64) []float64 {
		return append([]float64(nil), warm...)
	}
	want := bruteKnapsack(values, weights, capacity)
	res, err := Solve(knapsack(values, weights, capacity), Options{WarmStart: warm, Heuristic: heuristic})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != Optimal || math.Abs(res.Objective-want) > 1e-6 {
		t.Fatalf("got %v obj %v, brute force %v", res.Status, res.Objective, want)
	}
	if len(res.Incumbents) == 0 {
		t.Fatal("no incumbents recorded")
	}
}

// TestParallelNodeLimitReturnsIncumbent checks that a node-limited solve
// still reports a feasible incumbent and a valid bound.
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
	res, err := Solve(knapsack(values, weights, capacity), Options{MaxNodes: 5, WarmStart: warm})
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

// TestParallelHeuristicWindowOnOneCPU pins the bound around the heuristic
// window: the node whose LP point the heuristic sees is in neither queue
// until its children are pushed, so a solve stopped at any node limit must
// still report a bound no lower than the optimum, and an Optimal claim (or
// an unlimited solve) must match brute force. It runs on one CPU, as the
// search itself does.
func TestParallelHeuristicWindowOnOneCPU(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for seed := int64(0); seed < 60; seed++ {
		values, weights, capacity := randomKnapsack(seed)
		want := bruteKnapsack(values, weights, capacity)
		for maxNodes := 0; maxNodes <= 12; maxNodes++ { // 0 = unlimited
			calls := 0
			heuristic := func([]float64) []float64 {
				calls++
				return nil
			}
			res, err := Solve(knapsack(values, weights, capacity),
				Options{Heuristic: heuristic, MaxNodes: maxNodes})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			if calls == 0 {
				t.Fatalf("seed %d maxNodes %d: heuristic never called", seed, maxNodes)
			}
			if res.Bound < want-1e-6 {
				t.Fatalf("seed %d maxNodes %d: bound %v below the optimum %v",
					seed, maxNodes, res.Bound, want)
			}
			if (res.Status == Optimal || maxNodes == 0) && math.Abs(res.Objective-want) > 1e-6 {
				t.Fatalf("seed %d maxNodes %d: %v objective %v, brute force %v",
					seed, maxNodes, res.Status, res.Objective, want)
			}
		}
	}
}
