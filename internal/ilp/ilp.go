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
	// Workers sets the number of concurrent branch-and-bound workers.
	// 0 or 1 runs the serial engine, which reproduces the pre-parallel node
	// order and result bit for bit; n > 1 explores the tree with n workers
	// sharing the incumbent and a best-bound node queue (same optimum, node
	// order may differ). Callers wanting "all cores" pass
	// runtime.GOMAXPROCS(0) themselves.
	Workers int
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

// Solve runs branch and bound.
func Solve(p *Problem, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	// Build the shared CSC form once, up front: every node LP clone reuses
	// it, and parallel workers must not race to create their own.
	p.LP.Presparse()
	if opts.Workers > 1 {
		return solveParallel(p, opts)
	}
	start := time.Now()
	deadline := time.Time{}
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}

	isInt := make(map[int]bool, len(p.IntVars))
	for _, v := range p.IntVars {
		isInt[v] = true
	}
	isCeilVar := make(map[int]bool, len(opts.CeilVars))
	for _, v := range opts.CeilVars {
		isCeilVar[v] = true
	}

	res := &Result{Status: Limit, Objective: math.Inf(-1), Bound: math.Inf(1)}
	if opts.BoundCap > 0 {
		res.Bound = opts.BoundCap
	}
	var bestX []float64

	accept := func(obj float64, x []float64) {
		if obj <= res.Objective {
			return
		}
		res.Objective = obj
		bestX = append(bestX[:0], x...)
		res.Incumbents = append(res.Incumbents, Incumbent{Objective: obj, Elapsed: time.Since(start)})
		if opts.OnIncumbent != nil {
			opts.OnIncumbent(obj, x)
		}
	}

	if ws := opts.WarmStart; ws != nil && p.LP.Feasible(ws, 1e-7) {
		integral := true
		for _, v := range p.IntVars {
			if math.Abs(ws[v]-math.Round(ws[v])) > opts.IntTol {
				integral = false
				break
			}
		}
		if integral {
			accept(p.LP.Eval(ws), ws)
		}
	}

	open := &nodeHeap{}
	heap.Init(open)
	// Until the first incumbent exists, the search dives depth-first (LIFO
	// stack): best-bound alone wanders breadth-wise and can fail to produce
	// any integer-feasible point under a time limit. Once an incumbent is
	// found the stack drains into the best-bound heap.
	dive := []*node{{bound: math.Inf(1)}}
	rootInfeasible := false
	dropped := false
	// lostBound is the best bound among dropped (unexplorable) nodes: their
	// subtrees were never searched, so the proven upper bound can never fall
	// below it — without this, dropping the right nodes would let the
	// remaining tree "prove" a false optimum.
	lostBound := math.Inf(-1)
	explored := 0
	// decided marks a break that already fixed the final status (limit hit or
	// certified optimum). The exhausted-tree classification below must only
	// run on natural loop exit: a deadline break can pop the last queued node
	// and leave both queues empty with that node's subtree unexplored, which
	// an unconditional emptiness check would misread as a completed search —
	// and promote a time-limited incumbent to a false "optimal".
	decided := false

	for open.Len() > 0 || len(dive) > 0 {
		if explored >= opts.MaxNodes {
			res.Status = statusOnLimit(bestX)
			decided = true
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			res.Status = statusOnLimit(bestX)
			decided = true
			break
		}
		if bestX != nil && len(dive) > 0 {
			for _, nd := range dive {
				heap.Push(open, nd)
			}
			dive = dive[:0]
			continue
		}
		var nd *node
		if len(dive) > 0 {
			nd = dive[len(dive)-1]
			dive = dive[:len(dive)-1]
		} else {
			nd = heap.Pop(open).(*node)
			// Global bound = best open node bound (max-heap root).
			if nd.bound < res.Bound {
				res.Bound = nd.bound
			}
		}
		// Effective proven bound: the live frontier (folding in
		// Options.BoundCap via res.Bound), floored by dropped subtrees —
		// unless the external cap alone certifies the incumbent, which it
		// does regardless of what the tree lost.
		eff := math.Max(lostBound, math.Min(nd.bound, res.Bound))
		if opts.BoundCap > 0 {
			eff = math.Min(eff, opts.BoundCap)
		}
		if bestX != nil && eff <= res.Objective+opts.RelGap*math.Abs(res.Objective)+opts.IntTol {
			res.Status = Optimal
			decided = true
			break
		}
		explored++

		// Build and solve the node LP.
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
			lpOpts.Deadline = deadline
		}
		sol, err := q.Solve(lpOpts)
		if err != nil {
			return nil, err
		}
		if nd.depth == 0 {
			res.RootBasis = sol.Basis
			res.RootWarmed = sol.Warm
		}
		// Enforce the deadline on the LP result: the in-hand node's subtree
		// is unexplored, so it joins lostBound like any dropped node before
		// the limit status is returned.
		if !deadline.IsZero() && time.Now().After(deadline) {
			dropped = true
			lostBound = math.Max(lostBound, nd.bound)
			res.Status = statusOnLimit(bestX)
			decided = true
			break
		}
		switch sol.Status {
		case lp.Infeasible:
			if nd.depth == 0 {
				rootInfeasible = true
			}
			continue
		case lp.Unbounded:
			return nil, fmt.Errorf("ilp: LP relaxation unbounded")
		case lp.IterLimit:
			// Unexplorable within the pivot or wall-clock budget; drop the
			// node conservatively. Its parent bound joins lostBound so the
			// abandoned subtree keeps weakening the proven bound.
			dropped = true
			lostBound = math.Max(lostBound, nd.bound)
			continue
		}
		if sol.Objective <= res.Objective+opts.IntTol {
			continue // pruned by bound
		}

		// Pick the branch variable: the first fractional priority variable,
		// else the most fractional non-auxiliary integer variable.
		branchVar := -1
		for _, v := range opts.PriorityVars {
			f := sol.X[v] - math.Floor(sol.X[v])
			if math.Min(f, 1-f) > opts.IntTol {
				branchVar = v
				break
			}
		}
		if branchVar == -1 {
			worst := opts.IntTol
			for _, v := range p.IntVars {
				if isCeilVar[v] {
					continue
				}
				f := sol.X[v] - math.Floor(sol.X[v])
				frac := math.Min(f, 1-f)
				if frac > worst {
					worst, branchVar = frac, v
				}
			}
		}
		if opts.Trace != nil {
			frac := -1.0
			if branchVar >= 0 {
				f := sol.X[branchVar] - math.Floor(sol.X[branchVar])
				frac = math.Min(f, 1-f)
			}
			fmt.Fprintf(opts.Trace, "node=%d depth=%d lp=%v obj=%.3f branch=%d frac=%.3f iters=%d\n",
				explored, nd.depth, sol.Status, sol.Objective, branchVar, frac, sol.Iters)
		}
		if branchVar == -1 {
			// All decision variables integral. Complete the ceiling-defined
			// auxiliaries by rounding up.
			cand := append([]float64(nil), sol.X...)
			ok := true
			for _, v := range opts.CeilVars {
				up := math.Ceil(cand[v] - opts.IntTol)
				_, hi := q.Bounds(v)
				if up > hi+opts.IntTol {
					ok = false
					break
				}
				cand[v] = up
			}
			if ok && p.LP.Feasible(cand, 1e-7) {
				accept(p.LP.Eval(cand), cand)
				continue
			}
			// The rounded completion is infeasible: ceiling variables couple
			// through shared rows (per-stage block budgets), so rounding them
			// all up can overrun a budget even though each alone is fine. The
			// node's subproblem may still contain integral points with other
			// decision values — branch on the most fractional ceiling
			// variable rather than dropping the subtree.
			branchVar = fractionalCeilVar(sol.X, opts)
			if branchVar == -1 {
				continue // fully integral yet infeasible: nothing below
			}
		}

		// Primal heuristics: the naive snap-and-check, plus the caller's
		// domain heuristic. Run every node until an incumbent exists, then
		// every 20th node.
		if bestX == nil || explored%20 == 0 {
			if rx, ok := roundAndCheck(p, q, sol.X, isInt, opts.IntTol); ok {
				accept(p.LP.Eval(rx), rx)
			}
			if opts.Heuristic != nil {
				if hx := opts.Heuristic(sol.X); hx != nil && p.LP.Feasible(hx, 1e-7) {
					integral := true
					for _, v := range p.IntVars {
						if math.Abs(hx[v]-math.Round(hx[v])) > opts.IntTol {
							integral = false
							break
						}
					}
					if integral {
						accept(p.LP.Eval(hx), hx)
					}
				}
			}
		}

		v := sol.X[branchVar]
		lo, hi := q.Bounds(branchVar)
		down := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, lo, math.Floor(v)}), bound: sol.Objective, depth: nd.depth + 1}
		up := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, math.Ceil(v), hi}), bound: sol.Objective, depth: nd.depth + 1}
		if bestX == nil {
			// Dive up-first for binary-like variables: forcing a selection
			// to 1 collapses its at-most-one row and drives the LP toward
			// integrality, whereas forcing 0 merely shuffles fractional
			// mass to sibling slots (set-partitioning structure). Wider
			// integers dive toward the nearer bound. LIFO: preferred child
			// is pushed last.
			if hi-lo <= 1 || v-math.Floor(v) >= 0.5 {
				dive = append(dive, down, up)
			} else {
				dive = append(dive, up, down)
			}
		} else {
			heap.Push(open, down)
			heap.Push(open, up)
		}
	}

	if !decided && open.Len() == 0 && len(dive) == 0 {
		if bestX == nil {
			res.Status = Infeasible
			if !rootInfeasible && (explored == 0 || dropped) {
				res.Status = Limit
			}
		} else if dropped {
			// Some subtree was abandoned unexplored (node LP hit its pivot
			// cap or the wall-clock deadline); it may hold better points, so
			// the incumbent stays Feasible.
			res.Status = Feasible
		} else {
			res.Status = Optimal
			res.Bound = res.Objective
		}
	}
	if dropped {
		// Dropped subtrees rejoin the proven bound on every exit path: the
		// live frontier alone no longer covers the optimum. The external
		// BoundCap remains valid regardless.
		b := math.Max(res.Bound, lostBound)
		if opts.BoundCap > 0 {
			b = math.Min(b, opts.BoundCap)
		}
		res.Bound = b
	}
	// The incumbent itself is always a valid lower bound on the optimum, so
	// the proven upper bound can never be reported below it.
	if bestX != nil && res.Bound < res.Objective {
		res.Bound = res.Objective
	}
	res.X = bestX
	res.Nodes = explored
	res.Elapsed = time.Since(start)
	if res.Status == Optimal && bestX == nil {
		res.Status = Infeasible
	}
	return res, nil
}

func statusOnLimit(bestX []float64) Status {
	if bestX != nil {
		return Feasible
	}
	return Limit
}

// fractionalCeilVar returns the most fractional ceiling-defined variable at
// x, or -1 if all are integral. Used when the rounded-up completion of an
// otherwise-integral node is infeasible: the node must branch on a ceiling
// variable instead of being dropped.
func fractionalCeilVar(x []float64, opts Options) int {
	worst, branchVar := opts.IntTol, -1
	for _, v := range opts.CeilVars {
		f := x[v] - math.Floor(x[v])
		if frac := math.Min(f, 1-f); frac > worst {
			worst, branchVar = frac, v
		}
	}
	return branchVar
}

// roundAndCheck snaps integer variables to the nearest integer within their
// bounds and verifies all constraints directly. It returns the snapped point
// and whether it is feasible.
func roundAndCheck(p *Problem, q *lp.Problem, x []float64, isInt map[int]bool, tol float64) ([]float64, bool) {
	rx := append([]float64(nil), x...)
	for v := range isInt {
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
