package ilp

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"time"

	"sfp/internal/lp"
)

// solveParallel is the worker-pool branch-and-bound engine (Options.Workers
// > 1). Workers share one incumbent, one best-bound heap, and one dive
// stack behind a mutex; node LPs — the expensive part — run outside the
// lock. The search policy mirrors the serial engine (dive depth-first until
// the first incumbent, then best-bound), so the two engines prove the same
// optimum; only the node visit order differs, because workers race.
//
// Termination uses a condition variable: a worker that finds both queues
// empty must still wait while any peer is in flight, since that peer may
// push children.
func solveParallel(p *Problem, opts Options) (*Result, error) {
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

	bound0 := math.Inf(1)
	if opts.BoundCap > 0 {
		bound0 = opts.BoundCap
	}
	st := &parState{
		res:       &Result{Status: Limit, Objective: math.Inf(-1), Bound: bound0},
		open:      &nodeHeap{},
		inflight:  make(map[int]float64),
		lostBound: math.Inf(-1),
		start:     start,
		opts:      opts,
	}
	st.cond = sync.NewCond(&st.mu)
	heap.Init(st.open)

	if ws := opts.WarmStart; ws != nil && p.LP.Feasible(ws, 1e-7) {
		integral := true
		for _, v := range p.IntVars {
			if math.Abs(ws[v]-math.Round(ws[v])) > opts.IntTol {
				integral = false
				break
			}
		}
		if integral {
			st.accept(p.LP.Eval(ws), ws)
		}
	}
	st.dive = append(st.dive, &node{bound: math.Inf(1)})

	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			worker(id, p, opts, st, deadline, isInt, isCeilVar)
		}(w)
	}
	wg.Wait()

	res := st.res
	if st.err != nil {
		return nil, st.err
	}
	if !st.stopped { // queues drained naturally
		if st.bestX == nil {
			res.Status = Infeasible
			if !st.rootInfeasible && (st.explored == 0 || st.dropped) {
				res.Status = Limit
			}
		} else if st.dropped {
			// A subtree was abandoned unexplored (node LP hit its pivot cap
			// or the deadline): exhaustion proves nothing, mirror the serial
			// engine and stay Feasible.
			res.Status = Feasible
		} else {
			res.Status = Optimal
			res.Bound = res.Objective
		}
	}
	if st.dropped {
		// Dropped subtrees rejoin the proven bound on every exit path.
		b := math.Max(res.Bound, st.lostBound)
		if opts.BoundCap > 0 {
			b = math.Min(b, opts.BoundCap)
		}
		res.Bound = b
	}
	if st.bestX != nil && res.Bound < res.Objective {
		res.Bound = res.Objective
	}
	res.X = st.bestX
	res.Nodes = st.explored
	res.Elapsed = time.Since(start)
	if res.Status == Optimal && st.bestX == nil {
		res.Status = Infeasible
	}
	return res, nil
}

// parState is the mutex-guarded shared search state.
type parState struct {
	mu   sync.Mutex
	cond *sync.Cond

	open *nodeHeap
	dive []*node
	// inflight maps worker id -> bound of the node it is solving, so the
	// global proven bound accounts for nodes popped but not yet expanded.
	inflight map[int]float64

	res            *Result
	bestX          []float64
	explored       int
	rootInfeasible bool
	dropped        bool
	// lostBound is the best bound among dropped (unexplorable) nodes; the
	// proven bound can never fall below it (see the serial engine).
	lostBound float64
	stopped   bool
	err       error

	start time.Time
	opts  Options
}

// accept records an improving incumbent. Callers must hold st.mu (or be the
// single pre-worker goroutine).
func (st *parState) accept(obj float64, x []float64) {
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

// stop halts the search: the global bound is tightened with everything
// still queued or in flight, and all waiting workers are released.
// Callers must hold st.mu.
func (st *parState) stop(status Status) {
	if st.stopped {
		return
	}
	st.stopped = true
	st.res.Status = status
	bound := st.res.Objective
	if st.bestX == nil {
		bound = math.Inf(-1)
	}
	for _, nd := range *st.open {
		bound = math.Max(bound, nd.bound)
	}
	for _, nd := range st.dive {
		bound = math.Max(bound, nd.bound)
	}
	for _, b := range st.inflight {
		bound = math.Max(bound, b)
	}
	if bound < st.res.Bound {
		st.res.Bound = bound
	}
	st.cond.Broadcast()
}

func worker(id int, p *Problem, opts Options, st *parState, deadline time.Time, isInt, isCeilVar map[int]bool) {
	for {
		st.mu.Lock()
		var nd *node
		for {
			if st.stopped || st.err != nil {
				st.mu.Unlock()
				return
			}
			if st.bestX != nil && len(st.dive) > 0 {
				// First incumbent found: drain the dive stack into the
				// best-bound heap, as the serial engine does.
				for _, d := range st.dive {
					heap.Push(st.open, d)
				}
				st.dive = st.dive[:0]
			}
			if st.bestX == nil && len(st.dive) > 0 {
				nd = st.dive[len(st.dive)-1]
				st.dive = st.dive[:len(st.dive)-1]
				break
			}
			if st.open.Len() > 0 {
				nd = heap.Pop(st.open).(*node)
				if len(st.inflight) == 0 && nd.bound < st.res.Bound {
					// Only safe when nothing is in flight: an in-flight
					// node may still push children with larger bounds.
					st.res.Bound = nd.bound
				}
				break
			}
			if len(st.inflight) == 0 {
				// Tree exhausted.
				st.cond.Broadcast()
				st.mu.Unlock()
				return
			}
			st.cond.Wait()
		}
		if st.explored >= opts.MaxNodes {
			heap.Push(st.open, nd) // keep its bound visible to stop's sweep
			st.stop(statusOnLimit(st.bestX))
			st.mu.Unlock()
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			heap.Push(st.open, nd)
			st.stop(statusOnLimit(st.bestX))
			st.mu.Unlock()
			return
		}
		// Effective proven bound: live frontier floored by dropped
		// subtrees, unless the external cap alone certifies the incumbent
		// (mirrors the serial engine). nd is only the best node in the
		// heap; a peer may be mid-LP on a node with a larger bound whose
		// children are not pushed yet, so the frontier covers in-flight
		// nodes too.
		frontier := nd.bound
		for _, b := range st.inflight {
			frontier = math.Max(frontier, b)
		}
		eff := math.Max(st.lostBound, math.Min(frontier, st.res.Bound))
		if opts.BoundCap > 0 {
			eff = math.Min(eff, opts.BoundCap)
		}
		if st.bestX != nil && eff <= st.res.Objective+opts.RelGap*math.Abs(st.res.Objective)+opts.IntTol {
			heap.Push(st.open, nd)
			st.stop(Optimal)
			st.mu.Unlock()
			return
		}
		st.explored++
		nodeID := st.explored
		st.inflight[id] = nd.bound
		hadIncumbent := st.bestX != nil
		incumbentObj := st.res.Objective
		st.mu.Unlock()

		// Solve the node LP outside the lock.
		q := p.LP.Clone()
		for _, ch := range nd.changes {
			q.SetBounds(ch.v, ch.lo, ch.hi)
		}
		lpOpts := opts.LPOpts
		if nd.depth == 0 && opts.WarmBasis != nil {
			lpOpts.WarmBasis = opts.WarmBasis
		}
		// Same budget inheritance as the serial engine: an interrupted node
		// LP returns IterLimit and is dropped, keeping TimeLimit honest.
		if lpOpts.Deadline.IsZero() {
			lpOpts.Deadline = deadline
		}
		sol, err := q.Solve(lpOpts)

		st.mu.Lock()
		delete(st.inflight, id)
		if err == nil && nd.depth == 0 {
			st.res.RootBasis = sol.Basis
			st.res.RootWarmed = sol.Warm
		}
		if err != nil {
			if st.err == nil {
				st.err = err
			}
			st.cond.Broadcast()
			st.mu.Unlock()
			return
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			// The in-hand node left inflight above, so stop's sweep no longer
			// sees its bound; fold it into lostBound like any dropped node.
			st.dropped = true
			st.lostBound = math.Max(st.lostBound, nd.bound)
			st.stop(statusOnLimit(st.bestX))
			st.mu.Unlock()
			return
		}
		finishNode := func() {
			st.cond.Broadcast()
			st.mu.Unlock()
		}
		switch sol.Status {
		case lp.Infeasible:
			if nd.depth == 0 {
				st.rootInfeasible = true
			}
			finishNode()
			continue
		case lp.Unbounded:
			if st.err == nil {
				st.err = fmt.Errorf("ilp: LP relaxation unbounded")
			}
			finishNode()
			return
		case lp.IterLimit:
			// Unexplorable within the pivot or wall-clock budget; drop the
			// node conservatively and fold its bound into lostBound.
			st.dropped = true
			st.lostBound = math.Max(st.lostBound, nd.bound)
			finishNode()
			continue
		}
		if sol.Objective <= st.res.Objective+opts.IntTol {
			finishNode()
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
				nodeID, nd.depth, sol.Status, sol.Objective, branchVar, frac, sol.Iters)
		}
		if branchVar == -1 {
			// All decision variables integral: complete the ceiling-defined
			// auxiliaries by rounding up, as in the serial engine.
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
				st.accept(p.LP.Eval(cand), cand)
				finishNode()
				continue
			}
			// Rounding failed: branch on a fractional ceiling variable
			// instead of dropping the subtree (see the serial engine).
			branchVar = fractionalCeilVar(sol.X, opts)
			if branchVar == -1 {
				finishNode()
				continue
			}
		}

		// Primal heuristics run outside the lock (the caller's heuristic may
		// itself solve LPs); candidates are validated here and accepted
		// under the lock below.
		var heurCands [][]float64
		if !hadIncumbent || nodeID%20 == 0 {
			// The node is in neither queue while unlocked, so re-register it
			// as in flight: otherwise a peer could see an exhausted or
			// gap-closed tree before its children are pushed.
			st.inflight[id] = sol.Objective
			st.mu.Unlock()
			if rx, ok := roundAndCheck(p, q, sol.X, isInt, opts.IntTol); ok {
				heurCands = append(heurCands, rx)
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
						heurCands = append(heurCands, hx)
					}
				}
			}
			st.mu.Lock()
			delete(st.inflight, id)
			for _, c := range heurCands {
				st.accept(p.LP.Eval(c), c)
			}
			incumbentObj = st.res.Objective
			if sol.Objective <= incumbentObj+opts.IntTol {
				finishNode()
				continue // an incumbent arrived while we were heuristicking
			}
		}

		v := sol.X[branchVar]
		lo, hi := q.Bounds(branchVar)
		down := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, lo, math.Floor(v)}), bound: sol.Objective, depth: nd.depth + 1}
		up := &node{changes: append(append([]boundChange{}, nd.changes...), boundChange{branchVar, math.Ceil(v), hi}), bound: sol.Objective, depth: nd.depth + 1}
		if st.bestX == nil {
			// Dive up-first for binary-like variables (see the serial
			// engine for the rationale); LIFO, preferred child pushed last.
			if hi-lo <= 1 || v-math.Floor(v) >= 0.5 {
				st.dive = append(st.dive, down, up)
			} else {
				st.dive = append(st.dive, up, down)
			}
		} else {
			heap.Push(st.open, down)
			heap.Push(st.open, up)
		}
		finishNode()
	}
}
