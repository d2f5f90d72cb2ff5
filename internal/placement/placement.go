// Package placement implements SFP's control-plane SFC placement
// algorithms (§V of the paper):
//
//   - SolveIP — the exact integer program ("SFP-IP"), solved by branch and
//     bound with optional time limit and early termination (Figs. 8–10).
//   - SolveApprox — LP relaxation with randomized rounding and the
//     strip-one-SFC repair loop (Algorithm 1, "SFP-Appro.").
//   - SolveGreedy — the metric-ordered first-fit heuristic (Algorithm 2).
//   - Updater — runtime update (§V-E): departures release resources,
//     survivors stay pinned, and arrivals are placed incrementally, with a
//     threshold-triggered full reconfiguration.
package placement

import (
	"fmt"
	"math/rand"
	"time"

	"sfp/internal/ilp"
	"sfp/internal/lp"
	"sfp/internal/model"
)

// Result is the outcome of any placement algorithm.
type Result struct {
	// Assignment is the verified placement (never nil on success).
	Assignment *model.Assignment
	// Metrics summarizes it.
	Metrics model.Metrics
	// Objective is Eq. (1) of the placed assignment.
	Objective float64
	// Bound is the solver's proven upper bound on the optimum: the
	// branch-and-bound tree bound for SolveIP, the Lagrangian dual bound
	// for SolveDecomposed (0 for the heuristics).
	Bound float64
	// Gap is the certified relative optimality gap
	// (Bound − Objective)/Objective, clamped at 0. Exact solves that prove
	// optimality report 0; decomposed solves report the gap their dual
	// bound certifies.
	Gap float64
	// DualIters counts subgradient iterations (SolveDecomposed only).
	DualIters int
	// Elapsed is the algorithm's wall-clock time.
	Elapsed time.Duration
	// Status describes how the solver finished.
	Status string
	// Incumbents is the improving-objective time series (IP only).
	Incumbents []ilp.Incumbent
	// Nodes is the number of branch-and-bound nodes (IP only).
	Nodes int
	// RootBasis is the root LP's optimal simplex basis (IP only). Feeding
	// it back through IPOptions.WarmBasis lets a later solve over a
	// same-shaped model re-enter the dual simplex instead of solving cold.
	RootBasis *lp.Basis
	// RootWarmed reports whether this solve's root LP itself re-entered
	// from a supplied basis.
	RootWarmed bool
}

// IPOptions tunes SolveIP.
type IPOptions struct {
	// Build selects the formulation (consolidation, consistency form).
	Build model.BuildOptions
	// TimeLimit bounds the solve; with an incumbent present, early
	// termination returns it (the Fig. 9 experiment). Zero = no limit.
	TimeLimit time.Duration
	// MaxNodes bounds the search tree (0 = solver default).
	MaxNodes int
	// LPMaxIters caps the simplex pivots of each node LP (0 = the lp
	// default, which grows with the model). A node LP that reaches it is
	// dropped unexplored, like one cut off by TimeLimit, but the cut falls
	// at the same pivot on every host.
	LPMaxIters int
	// NoWarmStart disables seeding branch and bound with the greedy
	// solution. The Fig. 9 experiment sets it to reproduce a cold solver
	// that returns nothing under the tightest time limits.
	NoWarmStart bool
	// WarmFrom, if non-nil, seeds branch and bound with this assignment
	// (e.g. an SFP-Appro result) in addition to the greedy warm start; the
	// better incumbent wins. Ignored under NoWarmStart.
	WarmFrom *model.Assignment
	// WarmBasis, when non-nil, warm-starts the root LP from a prior solve's
	// RootBasis (cross-replan warm start). A basis whose shape does not
	// match the built model is ignored and the root solves cold — the
	// fallback is deterministic, never wrong.
	WarmBasis *lp.Basis
	// BoundCap, when positive, is an externally certified upper bound on
	// the optimum (e.g. SolveDecomposed's Bound): branch and bound reports
	// Bound = min(tree bound, cap) and stops as Optimal once the incumbent
	// is within RelGap of it. Zero disables it; passing an unproven value
	// weakens the optimality claim accordingly (see ilp.Options.BoundCap).
	BoundCap float64
	// RelGap is the relative optimality tolerance for termination
	// (ilp.Options.RelGap; 0 = solver default 1e-6). Loosening it pairs
	// naturally with BoundCap: stop once the incumbent provably sits within
	// this fraction of the certified bound.
	RelGap float64
}

// exactConsistencyLimit bounds the instance size (Σ_l J_l · K) for which
// SolveIP uses the exact per-variable Eq. (9) rows. Beyond it, one node LP
// takes longer than typical time limits (a limit interrupts the LP, which
// then leaves its node unexplored), so the IP-equivalent aggregated rows
// are used instead: bounds weaken but the warm start and primal heuristics
// still improve incumbents under the cap — which is all a time-limited
// solve at that scale can deliver.
const exactConsistencyLimit = 2000

// SolveIP solves the placement exactly ("SFP-IP"). For small instances the
// build uses the exact Eq. (9) rows (tight LP bounds); large instances fall
// back to the aggregated rows, which share the same integer optimum (see
// exactConsistencyLimit and DESIGN.md §4).
func SolveIP(in *model.Instance, opts IPOptions) (*Result, error) {
	start := time.Now()
	build := opts.Build
	zCount := 0
	for _, c := range in.Chains {
		zCount += c.Len() * in.K()
	}
	build.ExactConsistency = zCount <= exactConsistencyLimit
	enc, err := model.Build(in, build)
	if err != nil {
		return nil, err
	}
	var warm []float64
	if !opts.NoWarmStart {
		if gr, err := SolveGreedy(in, GreedyOptions{Consolidate: build.Consolidate}); err == nil {
			if w, err := enc.EncodeAssignment(gr.Assignment); err == nil {
				warm = w
			}
		}
		if opts.WarmFrom != nil {
			if w, err := enc.EncodeAssignment(opts.WarmFrom); err == nil {
				if warm == nil || enc.Prob.Eval(w) > enc.Prob.Eval(warm) {
					warm = w
				}
			}
		}
	}
	// Domain primal heuristic: round the node's LP point with the same
	// structured randomized rounding Algorithm 1 uses, repair it, and hand
	// the branch-and-bound a feasible incumbent candidate.
	hRng := rand.New(rand.NewSource(4242))
	heuristic := func(x []float64) []float64 {
		a, ok := roundAndRepair(in, enc, x, ApproxOptions{Build: build, Rounds: 8}, hRng)
		if !ok {
			return nil
		}
		if gr, err := SolveGreedy(in, GreedyOptions{Consolidate: build.Consolidate, Pinned: a}); err == nil {
			a = gr.Assignment
		}
		v, err := enc.EncodeAssignment(a)
		if err != nil {
			return nil
		}
		return v
	}
	res, err := ilp.Solve(&ilp.Problem{LP: enc.Prob, IntVars: enc.IntVars}, ilp.Options{
		TimeLimit:    opts.TimeLimit,
		MaxNodes:     opts.MaxNodes,
		LPOpts:       lp.Options{MaxIters: opts.LPMaxIters},
		PriorityVars: enc.XVars(),
		CeilVars:     enc.AuxVars(),
		WarmStart:    warm,
		Heuristic:    heuristic,
		WarmBasis:    opts.WarmBasis,
		BoundCap:     opts.BoundCap,
		RelGap:       opts.RelGap,
	})
	if err != nil {
		return nil, err
	}
	out := &Result{
		Elapsed:    time.Since(start),
		Status:     res.Status.String(),
		Bound:      res.Bound,
		Incumbents: res.Incumbents,
		Nodes:      res.Nodes,
		RootBasis:  res.RootBasis,
		RootWarmed: res.RootWarmed,
	}
	switch res.Status {
	case ilp.Optimal, ilp.Feasible:
		a := enc.Decode(res.X)
		if err := model.Verify(in, a, opts.Build.Consolidate); err != nil {
			return nil, fmt.Errorf("placement: IP solution failed verification: %w", err)
		}
		out.Assignment = a
		out.Metrics = model.ComputeMetrics(in, a, opts.Build.Consolidate)
		out.Objective = out.Metrics.Objective
		out.Gap = relGap(out.Bound, out.Objective)
	case ilp.Infeasible:
		// The model always admits the empty placement when Eq. 4 can be
		// satisfied; infeasibility means the physical side cannot exist.
		out.Assignment = nil
		out.Status = "infeasible"
	case ilp.Limit:
		// No incumbent within the limit: report the empty placement (the
		// Fig. 9 "5 s → objective 0" data point).
		a := emptyAssignment(in)
		out.Assignment = a
		out.Metrics = model.ComputeMetrics(in, a, opts.Build.Consolidate)
		out.Objective = 0
	}
	return out, nil
}

// emptyAssignment deploys nothing but satisfies Eq. 4 by installing one NF
// of every type on stage 0 (physical NFs consume no memory until rules are
// copied into them).
func emptyAssignment(in *model.Instance) *model.Assignment {
	a := model.NewAssignment(in)
	for i := range a.X {
		a.X[i][0] = true
	}
	return a
}

// SolveLPRelaxation solves the LP relaxation only and returns the encoded
// model, the relaxed point, and the relaxation objective. Exposed for the
// rounding algorithm and for experiments that study the LP bound itself.
func SolveLPRelaxation(in *model.Instance, build model.BuildOptions) (*model.Encoded, *lp.Solution, error) {
	enc, err := model.Build(in, build)
	if err != nil {
		return nil, nil, err
	}
	sol, err := enc.Prob.Solve(lp.Options{})
	if err != nil {
		return nil, nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, nil, fmt.Errorf("placement: LP relaxation %v", sol.Status)
	}
	return enc, sol, nil
}

// Metric is Eq. (13): chains with high bandwidth per unit of resource
// footprint are preferred (T_l / (J_l · Σ_j F_jl)).
func Metric(c *model.Chain) float64 {
	den := float64(c.Len() * c.RuleSum())
	if den == 0 {
		return 0
	}
	return c.BandwidthGbps / den
}
