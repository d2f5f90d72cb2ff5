// Package ilp implements a branch-and-bound mixed-integer programming
// solver over the internal/lp simplex engine. It provides the pieces the
// paper obtains from Gurobi: exact integer solutions ("SFP-IP"), a solver
// time limit with the best incumbent returned (the early-termination
// experiment of Fig. 9), and the relative-gap report.
package ilp

import (
	"container/heap"
	"fmt"
	"io"
	"math"
	"time"

	"sfp/internal/lp"
)

// Problem is a maximization MIP: the base LP plus integrality requirements.
type Problem struct {
	LP *lp.Problem
	// IntVars lists variable indices that must take integer values.
	IntVars []int
}

// Status is a solve outcome.
type Status int

// Solve statuses.
const (
	// Optimal: proven optimal within tolerances.
	Optimal Status = iota
	// Feasible: an incumbent exists but the search hit a limit.
	Feasible
	// Infeasible: no integer-feasible point exists.
	Infeasible
	// Limit: a limit was hit before any incumbent was found.
	Limit
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Feasible:
		return "feasible(limit)"
	case Infeasible:
		return "infeasible"
	case Limit:
		return "limit(no-incumbent)"
	}
	return fmt.Sprintf("status(%d)", int(s))
}

// Incumbent is one improving solution found during the search, with the
// wall-clock time at which it was found (drives the Fig. 9 series).
type Incumbent struct {
	Objective float64
	Elapsed   time.Duration
}

// Options tunes the search.
type Options struct {
	// TimeLimit bounds wall-clock search time (0 = none).
	TimeLimit time.Duration
	// MaxNodes bounds explored nodes (0 = default 200000).
	MaxNodes int
	// IntTol is the integrality tolerance (default 1e-6).
	IntTol float64
	// RelGap terminates when (bound-incumbent)/|incumbent| falls below it
	// (default 1e-6).
	RelGap float64
	// OnIncumbent, if set, is invoked for every improving solution.
	OnIncumbent func(obj float64, x []float64)
	// PriorityVars are branched on before other integer variables whenever
	// one of them is fractional, in listed order. Use for structurally
	// dominant variables (e.g. SFP's physical-placement x, whose fixing
	// collapses large symmetric families of logical placements).
	PriorityVars []int
	// WarmStart, if non-nil, is checked for feasibility and integrality and
	// adopted as the initial incumbent, so time-limited solves always have
	// a solution to fall back on (heuristic warm start, as MIP solvers do).
	WarmStart []float64
	// Heuristic, if set, is a domain primal heuristic: given a node's
	// (fractional) LP point it may return a candidate integer point. The
	// solver validates feasibility and integrality before adopting it as
	// an incumbent. Called on every node until the first incumbent, then
	// periodically.
	Heuristic func(x []float64) []float64
	// CeilVars marks integer variables that are ceiling-defined
	// auxiliaries: (near-)zero objective, lower-bounded by an expression
	// over the decision variables, appearing only with nonnegative
	// coefficients in budget rows. Their minimal integral completion is the
	// ceiling of their LP value, so the solver never branches on them: once
	// every other integer variable is integral it rounds them up and
	// accepts or prunes on feasibility.
	CeilVars []int
	// LPOpts configures the node LP solves.
	LPOpts lp.Options
	// Trace, if set, receives one diagnostic line per explored node.
	Trace io.Writer
	// WarmBasis warm-starts the ROOT LP relaxation from a prior solve's
	// optimal basis (cross-replan warm start: successive replans of a
	// retained problem differ only by bound pins, RHS give-backs, and
	// appended blocks, so the previous optimum re-enters via dual simplex).
	// It applies at depth 0 only: deeper nodes keep the presolve+cold path,
	// which measured faster than a full-size dual re-solve from the parent
	// basis and keeps the node order independent of which optimal vertex a
	// degenerate LP lands on. A basis whose shape does not match the
	// problem is ignored and the root solves cold, deterministically.
	WarmBasis *lp.Basis
	// BoundCap, when positive, is an externally certified upper bound on
	// the optimum (e.g. a Lagrangian dual bound from a decomposition). The
	// search reports Bound = min(tree bound, BoundCap) and terminates as
	// Optimal as soon as the incumbent is within RelGap of it — a solve
	// whose incumbent already matches a certified bound need not grind the
	// tree down to prove what is already known. Zero disables the cap; an
	// invalid (too small) cap yields a correspondingly weaker optimality
	// claim, so callers must only pass proven bounds.
	BoundCap float64
}

func (o Options) withDefaults() Options {
	if o.MaxNodes == 0 {
		o.MaxNodes = 200000
	}
	if o.IntTol == 0 {
		o.IntTol = 1e-6
	}
	if o.RelGap == 0 {
		o.RelGap = 1e-6
	}
	return o
}

// Result is the search outcome.
type Result struct {
	Status    Status
	Objective float64
	X         []float64
	// Bound is the best proven upper bound on the optimum.
	Bound float64
	// Nodes is the number of explored branch-and-bound nodes.
	Nodes int
	// Elapsed is total solve time.
	Elapsed time.Duration
	// Incumbents is the improving-solution time series.
	Incumbents []Incumbent
	// RootBasis is the root LP relaxation's optimal basis, when the root
	// exported one (nil otherwise). Callers retain it across replans and
	// pass it back as Options.WarmBasis.
	RootBasis *lp.Basis
	// RootWarmed reports whether the root LP actually solved via the warm
	// path (false when Options.WarmBasis was absent or fell back cold).
	RootWarmed bool
}

// Gap returns the relative optimality gap, or +inf with no incumbent.
func (r *Result) Gap() float64 {
	if r.Status == Infeasible || r.Status == Limit {
		return math.Inf(1)
	}
	den := math.Max(1e-9, math.Abs(r.Objective))
	return (r.Bound - r.Objective) / den
}

// boundChange tightens one variable's bounds relative to the parent node.
type boundChange struct {
	v      int
	lo, hi float64
}

// node is one branch-and-bound node.
type node struct {
	changes []boundChange
	bound   float64 // parent LP bound (optimistic estimate)
	depth   int
}

// nodeHeap is a max-heap on bound with depth-first tie-breaking (deeper
// first), giving a best-bound search that still dives for incumbents.
type nodeHeap []*node

func (h nodeHeap) Len() int { return len(h) }
func (h nodeHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound > h[j].bound
	}
	return h[i].depth > h[j].depth
}
func (h nodeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *nodeHeap) Push(x any)   { *h = append(*h, x.(*node)) }
func (h *nodeHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Solve runs branch and bound on the caller's goroutine. The node order
// depends only on the problem and the options, so a solve bounded by
// MaxNodes alone returns the same result on every run; TimeLimit is the
// one input that can cut it short at a different node.
func Solve(p *Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Build the shared CSC form once, up front: every node LP clone reuses
	// it.
	p.LP.Presparse()
	st := &search{
		p:         p,
		opts:      opts,
		start:     time.Now(),
		isCeilVar: make(map[int]bool, len(opts.CeilVars)),
		res:       &Result{Status: Limit, Objective: math.Inf(-1), Bound: math.Inf(1)},
		open:      &nodeHeap{},
		dive:      []*node{{bound: math.Inf(1)}},
		lostBound: math.Inf(-1),
	}
	if opts.TimeLimit > 0 {
		st.deadline = st.start.Add(opts.TimeLimit)
	}
	for _, v := range opts.CeilVars {
		st.isCeilVar[v] = true
	}
	if opts.BoundCap > 0 {
		st.res.Bound = opts.BoundCap
	}
	if ws := opts.WarmStart; ws != nil && st.integralFeasible(ws) {
		st.accept(p.LP.Eval(ws), ws)
	}
	for st.step() {
	}
	if st.err != nil {
		return nil, st.err
	}
	return st.result(), nil
}

// search is the branch-and-bound state of one Solve.
type search struct {
	p         *Problem
	opts      Options
	start     time.Time
	deadline  time.Time // zero without a TimeLimit
	isCeilVar map[int]bool

	open *nodeHeap
	// dive is a LIFO stack searched depth-first until the first incumbent
	// exists: best-bound alone wanders breadth-wise and can fail to produce
	// any integer-feasible point under a time limit. Once an incumbent is
	// found the stack drains into the best-bound heap.
	dive []*node

	res            *Result
	bestX          []float64
	explored       int
	rootInfeasible bool
	// dropped records that some node was abandoned unexplored (its LP hit
	// the pivot cap or the deadline). lostBound is the best bound among
	// those nodes: their subtrees were never searched, so the proven upper
	// bound can never fall below it. Without it, dropping the right nodes
	// would let the remaining tree "prove" a false optimum.
	dropped   bool
	lostBound float64
	// stopped marks a halt that already fixed the final status (limit hit
	// or certified optimum). The tree-exhausted classification in result
	// runs only when the queues drained naturally: a deadline halt can pop
	// the last queued node and leave both queues empty with that node's
	// subtree unexplored, which an emptiness check alone would misread as
	// a completed search, promoting a time-limited incumbent to a false
	// "optimal".
	stopped bool
	err     error
}

// integralFeasible reports whether a WarmStart or Heuristic candidate
// satisfies every row, every bound and integrality.
func (st *search) integralFeasible(x []float64) bool {
	if !st.p.LP.Feasible(x, 1e-7) {
		return false
	}
	for _, v := range st.p.IntVars {
		if math.Abs(x[v]-math.Round(x[v])) > st.opts.IntTol {
			return false
		}
	}
	return true
}

// accept records an improving incumbent.
func (st *search) accept(obj float64, x []float64) {
	if obj <= st.res.Objective {
		return
	}
	st.res.Objective = obj
	st.bestX = append(st.bestX[:0], x...)
	st.res.Incumbents = append(st.res.Incumbents, Incumbent{Objective: obj, Elapsed: time.Since(st.start)})
	if st.opts.OnIncumbent != nil {
		st.opts.OnIncumbent(obj, x)
	}
}

func (st *search) pastDeadline() bool {
	return !st.deadline.IsZero() && time.Now().After(st.deadline)
}

// stop halts the search: the global bound is tightened with everything
// still queued.
func (st *search) stop(status Status) {
	st.stopped = true
	st.res.Status = status
	bound := st.res.Objective // -Inf until an incumbent exists
	for _, nd := range *st.open {
		bound = math.Max(bound, nd.bound)
	}
	for _, nd := range st.dive {
		bound = math.Max(bound, nd.bound)
	}
	if bound < st.res.Bound {
		st.res.Bound = bound
	}
}

// drop abandons a node whose subtree stays unexplored.
func (st *search) drop(nd *node) {
	st.dropped = true
	st.lostBound = math.Max(st.lostBound, nd.bound)
}

// pop returns the next node to expand, or nil once the tree is exhausted.
func (st *search) pop() *node {
	if st.bestX != nil && len(st.dive) > 0 {
		for _, d := range st.dive {
			heap.Push(st.open, d)
		}
		st.dive = st.dive[:0]
	}
	if len(st.dive) > 0 {
		nd := st.dive[len(st.dive)-1]
		st.dive = st.dive[:len(st.dive)-1]
		return nd
	}
	if st.open.Len() == 0 {
		return nil
	}
	nd := heap.Pop(st.open).(*node)
	if nd.bound < st.res.Bound {
		st.res.Bound = nd.bound
	}
	return nd
}

// step pops one node and expands it, reporting whether the search goes on.
func (st *search) step() bool {
	p, opts := st.p, st.opts
	nd := st.pop()
	if nd == nil {
		return false
	}
	if st.explored >= opts.MaxNodes || st.pastDeadline() {
		heap.Push(st.open, nd) // keep its bound visible to stop's sweep
		st.stop(statusOnLimit(st.bestX))
		return false
	}
	// Effective proven bound: the best queued node (folding in
	// Options.BoundCap via res.Bound), floored by dropped subtrees, unless
	// the external cap alone certifies the incumbent, which it does
	// regardless of what the tree lost.
	eff := math.Max(st.lostBound, math.Min(nd.bound, st.res.Bound))
	if opts.BoundCap > 0 {
		eff = math.Min(eff, opts.BoundCap)
	}
	if st.bestX != nil && eff <= st.res.Objective+opts.RelGap*math.Abs(st.res.Objective)+opts.IntTol {
		heap.Push(st.open, nd)
		st.stop(Optimal)
		return false
	}
	st.explored++
	nodeID := st.explored
	hadIncumbent := st.bestX != nil

	q := p.LP.Clone()
	for _, ch := range nd.changes {
		q.SetBounds(ch.v, ch.lo, ch.hi)
	}
	lpOpts := opts.LPOpts
	if nd.depth == 0 && opts.WarmBasis != nil {
		lpOpts.WarmBasis = opts.WarmBasis
	}
	// The node LP inherits the remaining wall-clock budget: a solve the
	// deadline interrupts comes back IterLimit and is dropped like any
	// unexplorable node, so one huge LP cannot overshoot the TimeLimit.
	if lpOpts.Deadline.IsZero() {
		lpOpts.Deadline = st.deadline
	}
	sol, err := q.Solve(lpOpts)
	if err != nil {
		st.err = err
		return false
	}
	if nd.depth == 0 {
		st.res.RootBasis = sol.Basis
		st.res.RootWarmed = sol.Warm
	}
	if st.pastDeadline() {
		// The in-hand node is in neither queue, so stop's sweep does not see
		// its bound; its subtree is unexplored, so it joins lostBound like
		// any dropped node.
		st.drop(nd)
		st.stop(statusOnLimit(st.bestX))
		return false
	}
	switch sol.Status {
	case lp.Infeasible:
		if nd.depth == 0 {
			st.rootInfeasible = true
		}
		return true
	case lp.Unbounded:
		st.err = fmt.Errorf("ilp: LP relaxation unbounded")
		return false
	case lp.IterLimit:
		// Unexplorable within the pivot or wall-clock budget.
		st.drop(nd)
		return true
	}
	if sol.Objective <= st.res.Objective+opts.IntTol {
		return true // pruned by bound
	}

	branchVar := st.branchVar(sol.X)
	if opts.Trace != nil {
		frac := -1.0
		if branchVar >= 0 {
			frac = fractionality(sol.X[branchVar])
		}
		fmt.Fprintf(opts.Trace, "node=%d depth=%d lp=%v obj=%.3f branch=%d frac=%.3f iters=%d\n",
			nodeID, nd.depth, sol.Status, sol.Objective, branchVar, frac, sol.Iters)
	}
	if branchVar == -1 {
		// All decision variables integral. Complete the ceiling-defined
		// auxiliaries by rounding up.
		cand := append([]float64(nil), sol.X...)
		ok := true
		for _, v := range opts.CeilVars {
			up := math.Ceil(cand[v] - opts.IntTol)
			if _, hi := q.Bounds(v); up > hi+opts.IntTol {
				ok = false
				break
			}
			cand[v] = up
		}
		if ok && p.LP.Feasible(cand, 1e-7) {
			st.accept(p.LP.Eval(cand), cand)
			return true
		}
		// The rounded completion is infeasible: ceiling variables couple
		// through shared rows (per-stage block budgets), so rounding them
		// all up can overrun a budget even though each alone is fine. The
		// node's subproblem may still contain integral points with other
		// decision values, so branch on the most fractional ceiling
		// variable rather than dropping the subtree.
		branchVar = mostFractional(sol.X, opts.CeilVars, nil, opts.IntTol)
		if branchVar == -1 {
			return true // fully integral yet infeasible: nothing below
		}
	}

	// Primal heuristics: the naive snap-and-check, plus the caller's
	// domain heuristic. Run every node until an incumbent exists, then
	// every 20th node.
	if !hadIncumbent || nodeID%20 == 0 {
		if rx, ok := roundAndCheck(q, sol.X, p.IntVars, opts.IntTol); ok {
			st.accept(p.LP.Eval(rx), rx)
		}
		if opts.Heuristic != nil {
			if hx := opts.Heuristic(sol.X); hx != nil && st.integralFeasible(hx) {
				st.accept(p.LP.Eval(hx), hx)
			}
		}
		if sol.Objective <= st.res.Objective+opts.IntTol {
			return true // pruned by the incumbent just found
		}
	}

	v := sol.X[branchVar]
	lo, hi := q.Bounds(branchVar)
	down := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, lo, math.Floor(v)}), bound: sol.Objective, depth: nd.depth + 1}
	up := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, math.Ceil(v), hi}), bound: sol.Objective, depth: nd.depth + 1}
	if st.bestX == nil {
		// Dive up-first for binary-like variables: forcing a selection to 1
		// collapses its at-most-one row and drives the LP toward
		// integrality, whereas forcing 0 merely shuffles fractional mass to
		// sibling slots (set-partitioning structure). Wider integers dive
		// toward the nearer bound. LIFO: the preferred child is pushed last.
		if hi-lo <= 1 || v-math.Floor(v) >= 0.5 {
			st.dive = append(st.dive, down, up)
		} else {
			st.dive = append(st.dive, up, down)
		}
	} else {
		heap.Push(st.open, down)
		heap.Push(st.open, up)
	}
	return true
}

// branchVar picks the branching variable at x: the first fractional
// priority variable, else the most fractional integer variable that is not
// a ceiling auxiliary. It returns -1 when all of those are integral.
func (st *search) branchVar(x []float64) int {
	for _, v := range st.opts.PriorityVars {
		if fractionality(x[v]) > st.opts.IntTol {
			return v
		}
	}
	return mostFractional(x, st.p.IntVars, st.isCeilVar, st.opts.IntTol)
}

// result classifies the finished search and fills in the Result.
func (st *search) result() *Result {
	res := st.res
	if !st.stopped { // queues drained naturally
		if st.bestX == nil {
			res.Status = Infeasible
			if !st.rootInfeasible && (st.explored == 0 || st.dropped) {
				res.Status = Limit
			}
		} else if st.dropped {
			// An abandoned subtree may hold better points, so the
			// incumbent stays Feasible.
			res.Status = Feasible
		} else {
			res.Status = Optimal
			res.Bound = res.Objective
		}
	}
	if st.dropped {
		// Dropped subtrees rejoin the proven bound on every exit path: the
		// live frontier alone no longer covers the optimum. The external
		// BoundCap remains valid regardless.
		b := math.Max(res.Bound, st.lostBound)
		if st.opts.BoundCap > 0 {
			b = math.Min(b, st.opts.BoundCap)
		}
		res.Bound = b
	}
	// The incumbent itself is always a valid lower bound on the optimum, so
	// the proven upper bound can never be reported below it.
	if st.bestX != nil && res.Bound < res.Objective {
		res.Bound = res.Objective
	}
	res.X = st.bestX
	res.Nodes = st.explored
	res.Elapsed = time.Since(st.start)
	if res.Status == Optimal && st.bestX == nil {
		res.Status = Infeasible
	}
	return res
}

func statusOnLimit(bestX []float64) Status {
	if bestX != nil {
		return Feasible
	}
	return Limit
}

// fractionality is the distance from x to the nearest integer.
func fractionality(x float64) float64 {
	f := x - math.Floor(x)
	return math.Min(f, 1-f)
}

// mostFractional returns the variable of vars, skipping those in skip, whose
// value at x is the most fractional beyond tol; -1 if none is.
func mostFractional(x []float64, vars []int, skip map[int]bool, tol float64) int {
	worst, branchVar := tol, -1
	for _, v := range vars {
		if frac := fractionality(x[v]); !skip[v] && frac > worst {
			worst, branchVar = frac, v
		}
	}
	return branchVar
}

// roundAndCheck snaps the integer variables to the nearest integer within
// their bounds in q and verifies all constraints directly. It returns the
// snapped point and whether it is feasible.
func roundAndCheck(q *lp.Problem, x []float64, intVars []int, tol float64) ([]float64, bool) {
	rx := append([]float64(nil), x...)
	for _, v := range intVars {
		r := math.Round(rx[v])
		lo, hi := q.Bounds(v)
		if r < lo {
			r = math.Ceil(lo)
		}
		if r > hi {
			r = math.Floor(hi)
		}
		if r < lo-tol || r > hi+tol {
			return nil, false
		}
		rx[v] = r
	}
	if !q.Feasible(rx, 1e-7) {
		return nil, false
	}
	return rx, true
}
