package placement

import (
	"fmt"
	"sort"
	"time"

	"sfp/internal/ilp"
	"sfp/internal/lp"
	"sfp/internal/model"
)

// Updater implements runtime update (§V-E). It tracks which chains are
// live (placed), which are waiting candidates, and which departed; Replan
// places waiting candidates into the resources departures released while
// keeping survivors pinned to their current stages and the physical layout
// fixed, and MaybeReconfigure compares the incremental result against a
// full re-optimization to decide whether a (disruptive) reconfiguration is
// worthwhile.
//
// Replan runs on an incremental fast path by default: a pinned-tenant-
// eliminated residual program (model.Residual) is retained across replans
// and patched per arrival/departure, and successive solves re-enter from
// the previous root basis (lp dual simplex). Its cost scales with the
// waiting set, not the live-tenant count. ReplanOptions.FullRebuild forces
// the original full-model reference path, which the equivalence tests use
// as the oracle.
//
// ReplanGreedy is O(batch): the Updater retains Algorithm 2's resource state
// (greedyState) and an independent model.Ledger over the live set, patches
// both on every arrival, departure, withdrawal and admission, and re-sums
// them from scratch only when the live set or layout changes wholesale
// (NewUpdater, a full replan, an adopted reconfiguration).
type Updater struct {
	sw       model.SwitchConfig
	numTypes int
	recirc   int
	build    model.BuildOptions

	chains map[int]*model.Chain
	// live maps chain ID to its virtual stages.
	live map[int][]int
	// waiting holds candidate IDs not yet placed.
	waiting map[int]bool
	// layout is the current physical-NF placement.
	layout [][]bool
	// ids is every known chain ID in ascending order, maintained
	// incrementally on Arrive/Depart/Withdraw (snapshot at 10k tenants must
	// not sort from scratch per replan).
	ids []int

	// fast is the retained incremental-replan state; nil until the first
	// fast Replan, and invalidated whenever the live set or layout changes
	// through a path that does not patch it (greedy replans, adopted
	// reconfigurations, full replans).
	fast *fastState
	// fullBasis is the root LP basis of the last full-model solve
	// (FullRebuild replans and MaybeReconfigure share the model shape while
	// the chain set is unchanged; shape mismatches fall back cold).
	fullBasis *lp.Basis
	stats     ReplanStats

	// greedy is the retained Algorithm-2 state over the live set; its X is
	// layout itself, so greedy admissions grow the layout in place.
	greedy *greedyState
	// ledger accounts the live set independently of greedy: every
	// admission is checked against it, and it supplies ReplanGreedy's
	// metrics.
	ledger *model.Ledger
	// rebuilt records that greedy and ledger were re-summed from scratch
	// since the last ReplanGreedy.
	rebuilt bool
	// admitted lists, ascending, the chains the most recent replan made
	// live.
	admitted []int
}

// fastState is the retained residual program plus its warm-start basis.
type fastState struct {
	resid *model.Residual
	basis *lp.Basis
}

// ReplanStats reports how the most recent Replan executed — the
// observability hook for core and the experiments. ReplanGreedy fills in
// only Admitted, Elapsed, InModel (the waiting chains it tried) and Rebuilt
// (the retained greedy state and ledger were re-summed from scratch since
// the previous greedy replan).
type ReplanStats struct {
	// FullRebuild is true when the reference full-model path ran.
	FullRebuild bool
	// Rebuilt is true when the residual program was (re)built this call
	// rather than patched.
	Rebuilt bool
	// WarmStarted is true when the root LP re-entered from a prior basis.
	WarmStarted bool
	// InModel counts chain blocks carried in the solved program.
	InModel int
	// Admitted counts chains this replan placed.
	Admitted int
	// Nodes is the branch-and-bound node count (0 when the solve was
	// skipped because nothing was waiting).
	Nodes int
	// Decomposed is true when a MaybeReconfigure full re-optimization ran
	// the Lagrangian decomposition instead of the exact IP.
	Decomposed bool
	// Gap is the certified relative optimality gap of the most recent
	// MaybeReconfigure full solve: 0 for proven-optimal exact solves,
	// (dual bound − objective)/objective for decomposed ones.
	Gap float64
	// Elapsed is the replan's wall-clock time.
	Elapsed time.Duration
}

// NewUpdater starts runtime management from an initial placement produced
// by any of the solvers over the given instance.
func NewUpdater(in *model.Instance, a *model.Assignment, build model.BuildOptions) (*Updater, error) {
	if err := model.Verify(in, a, build.Consolidate); err != nil {
		return nil, fmt.Errorf("placement: initial assignment invalid: %w", err)
	}
	u := &Updater{
		sw:       in.Switch,
		numTypes: in.NumTypes,
		recirc:   in.Recirc,
		build:    build,
		chains:   make(map[int]*model.Chain),
		live:     make(map[int][]int),
		waiting:  make(map[int]bool),
		layout:   make([][]bool, in.NumTypes),
	}
	for i := range u.layout {
		u.layout[i] = append([]bool(nil), a.X[i]...)
	}
	for l, c := range in.Chains {
		u.chains[c.ID] = c
		u.ids = append(u.ids, c.ID)
		if a.Deployed(l) {
			u.live[c.ID] = append([]int(nil), a.Stages[l]...)
		} else {
			u.waiting[c.ID] = true
		}
	}
	sort.Ints(u.ids)
	u.rebuildAccounts()
	return u, nil
}

// rebuildAccounts re-sums the retained greedy state and the ledger from the
// live set, in ascending ID order.
func (u *Updater) rebuildAccounts() {
	shape := &model.Instance{Switch: u.sw, NumTypes: u.numTypes, Recirc: u.recirc}
	g := newGreedyState(shape, u.build.Consolidate)
	g.X = u.layout
	u.ledger = model.NewLedger(u.sw, u.numTypes, u.build.Consolidate)
	for _, id := range u.ids {
		if st, ok := u.live[id]; ok {
			g.pin(u.chains[id], st)
			u.ledger.Add(u.chains[id], st)
		}
	}
	u.greedy, u.rebuilt = g, true
}

// admit makes a waiting chain live at the given stages and accounts it in
// the ledger; the caller has committed it to the greedy state.
func (u *Updater) admit(id int, stages []int) {
	u.live[id] = stages
	delete(u.waiting, id)
	u.ledger.Add(u.chains[id], stages)
	u.admitted = append(u.admitted, id)
}

func (u *Updater) addID(id int) {
	i := sort.SearchInts(u.ids, id)
	u.ids = append(u.ids, 0)
	copy(u.ids[i+1:], u.ids[i:])
	u.ids[i] = id
}

func (u *Updater) dropID(id int) {
	i := sort.SearchInts(u.ids, id)
	if i < len(u.ids) && u.ids[i] == id {
		u.ids = append(u.ids[:i], u.ids[i+1:]...)
	}
}

// Live returns the IDs of currently placed chains.
func (u *Updater) Live() []int {
	ids := make([]int, 0, len(u.live))
	for id := range u.live {
		ids = append(ids, id)
	}
	return ids
}

// Waiting returns the number of unplaced candidates.
func (u *Updater) Waiting() int { return len(u.waiting) }

// LastReplan reports how the most recent Replan, ReplanGreedy or
// MaybeReconfigure executed.
func (u *Updater) LastReplan() ReplanStats { return u.stats }

// Admitted lists, in ascending order, the chains the most recent Replan or
// ReplanGreedy moved from waiting to live; nil after MaybeReconfigure,
// which replaces the live set wholesale. The slice is reused by the next
// replan.
func (u *Updater) Admitted() []int { return u.admitted }

// Placement returns a live chain's definition and virtual stages (owned by
// the Updater; do not modify).
func (u *Updater) Placement(id int) (*model.Chain, []int, bool) {
	st, ok := u.live[id]
	if !ok {
		return nil, nil, false
	}
	return u.chains[id], st, true
}

// Layout returns a copy of the current physical-NF layout.
func (u *Updater) Layout() [][]bool {
	out := make([][]bool, len(u.layout))
	for i := range u.layout {
		out[i] = append([]bool(nil), u.layout[i]...)
	}
	return out
}

// Depart removes a live tenant: its resources become available to future
// Replan calls. It is Withdraw restricted to live chains.
func (u *Updater) Depart(id int) error {
	if _, ok := u.live[id]; !ok {
		return fmt.Errorf("placement: chain %d is not live", id)
	}
	u.Withdraw(id)
	return nil
}

// Arrive registers a new candidate chain. Its ID must be fresh and the
// chain itself valid (model.Chain.Validate).
func (u *Updater) Arrive(c *model.Chain) error {
	if _, ok := u.chains[c.ID]; ok {
		return fmt.Errorf("placement: chain ID %d already known", c.ID)
	}
	if err := c.Validate(u.numTypes); err != nil {
		return err
	}
	u.chains[c.ID] = c
	u.waiting[c.ID] = true
	u.addID(c.ID)
	if u.fast != nil {
		dv, dr, err := u.fast.resid.Append(c)
		if err != nil {
			u.fast = nil
		} else if u.fast.basis != nil {
			// Grow the retained basis alongside the program: the appended
			// block enters at its trivial corner and the next dual-simplex
			// re-entry starts from the previous optimum.
			u.fast.basis = u.fast.basis.Extend(dv, dr)
		}
	}
	return nil
}

// Withdraw erases a chain whether live or waiting, as if it never
// arrived. It is the rollback path for an arrival whose data-plane
// install failed after the replan already admitted it.
func (u *Updater) Withdraw(id int) {
	c, known := u.chains[id]
	st, wasLive := u.live[id]
	delete(u.live, id)
	delete(u.waiting, id)
	delete(u.chains, id)
	if !known {
		return
	}
	if wasLive {
		u.greedy.release(c, st)
		u.ledger.Remove(c, st)
	}
	u.dropID(id)
	if u.fast != nil {
		// Patch the retained program: an in-model (admitted-this-program)
		// chain's block is zeroed; a folded survivor's consumption returns
		// to the RHS. The basis keeps its shape, so the next solve still
		// warm-starts.
		var err error
		if u.fast.resid.Has(id) {
			err = u.fast.resid.Kill(id)
		} else if wasLive {
			err = u.fast.resid.ReleaseFolded(c, st)
		}
		if err != nil {
			u.fast = nil // desync: rebuild lazily on the next replan
		}
	}
}

// Adjust replaces a live tenant's chain definition; per §V-E this is
// treated as a departure followed by an arrival (the new chain waits for
// the next Replan).
func (u *Updater) Adjust(id int, replacement *model.Chain) error {
	if err := u.Depart(id); err != nil {
		return err
	}
	return u.Arrive(replacement)
}

// snapshot builds the current instance (live + waiting chains, stable
// ascending-ID order) and the assignment of the live ones.
func (u *Updater) snapshot() (*model.Instance, *model.Assignment, []int) {
	in := &model.Instance{Switch: u.sw, NumTypes: u.numTypes, Recirc: u.recirc}
	in.Chains = make([]*model.Chain, 0, len(u.ids))
	for _, id := range u.ids {
		in.Chains = append(in.Chains, u.chains[id])
	}
	a := model.NewAssignment(in)
	for i := range u.layout {
		copy(a.X[i], u.layout[i])
	}
	for l, c := range in.Chains {
		if st, ok := u.live[c.ID]; ok {
			copy(a.Stages[l], st)
		}
	}
	return in, a, u.ids
}

// Current returns the live instance, assignment and metrics.
func (u *Updater) Current() (*model.Instance, *model.Assignment, model.Metrics) {
	in, a, _ := u.snapshot()
	return in, a, model.ComputeMetrics(in, a, u.build.Consolidate)
}

// ReplanOptions tunes an incremental replan.
type ReplanOptions struct {
	// TimeLimit bounds the embedded IP solve (0 = none).
	TimeLimit time.Duration
	// MaxNodes bounds the search (0 = solver default).
	MaxNodes int
	// LPMaxIters caps the simplex pivots of each node LP (0 = the lp
	// default); see IPOptions.LPMaxIters.
	LPMaxIters int
	// FullRebuild forces the reference path: model.Build over every tenant
	// plus PinPhysical/PinChain, re-encoded from scratch. Equivalent to the
	// default incremental path (the equivalence suite proves it) but costs
	// Ω(total tenants) per replan.
	FullRebuild bool
	// WarmBasis, when set, overrides the internally retained basis for this
	// solve's root LP (lp.Options.WarmBasis semantics: a shape-mismatched
	// basis is ignored and the root solves cold, deterministically).
	WarmBasis *lp.Basis
	// SolverWorkers sets the pricing worker count on MaybeReconfigure's
	// decomposed path (0 means 1). It never changes a result: per-chain
	// pricing results are merged in chain order.
	SolverWorkers int
	// DecomposeAbove routes MaybeReconfigure's full re-optimization to the
	// Lagrangian decomposition (SolveDecomposed) once the total chain count
	// reaches it: the exact IP below, feasibility + certified gap above.
	// 0 means DefaultDecomposeAbove; negative always solves exactly.
	DecomposeAbove int
}

// Replan places waiting candidates into the released resources: survivors
// stay pinned to their stages, the physical layout stays fixed, and the IP
// optimizes only over the incremental chains. Newly placed chains become
// live. It returns the post-update metrics.
func (u *Updater) Replan(opts ReplanOptions) (model.Metrics, error) {
	start := time.Now()
	u.admitted = u.admitted[:0]
	if opts.FullRebuild {
		return u.replanFull(opts, start)
	}
	m, err := u.replanFast(opts, start)
	if err != nil {
		// The fast path never guesses: any residual build, decode, or
		// verification trouble discards the retained state and falls back
		// to the reference path.
		u.fast = nil
		return u.replanFull(opts, start)
	}
	return m, nil
}

// compactionSlack bounds how much dead/pinned ballast the retained residual
// program may accumulate before it is rebuilt from the current state.
const compactionSlack = 32

// replanFast is the incremental path: retain the residual program, patch it
// (done eagerly in Arrive/Depart/Withdraw), solve warm, verify, admit.
func (u *Updater) replanFast(opts ReplanOptions, start time.Time) (model.Metrics, error) {
	stats := ReplanStats{}
	if u.fast != nil {
		// Compaction: pinned and dead blocks keep their (fixed) variables
		// in the program. Presolve folds them per node LP, but the folding
		// itself costs time proportional to the program size — rebuild once
		// the ballast outweighs the waiting set.
		w, pn, d := u.fast.resid.Loads()
		if pn+d > compactionSlack && pn+d > 2*w {
			u.fast = nil
		}
	}
	if u.fast == nil {
		in, _, _ := u.snapshot()
		resid, err := model.BuildResidual(in, u.live, u.layout, u.build)
		if err != nil {
			return model.Metrics{}, err
		}
		u.fast = &fastState{resid: resid}
		stats.Rebuilt = true
	}
	f := u.fast
	w, pn, d := f.resid.Loads()
	stats.InModel = w + pn + d
	if w == 0 {
		// Empty waiting set: nothing to place, the current state is the
		// residual optimum. Skip the solve entirely.
		in, cur, _ := u.snapshot()
		stats.Elapsed = time.Since(start)
		u.stats = stats
		return model.ComputeMetrics(in, cur, u.build.Consolidate), nil
	}
	wb := opts.WarmBasis
	if wb == nil {
		wb = f.basis
	}
	res, err := ilp.Solve(&ilp.Problem{LP: f.resid.Prob, IntVars: f.resid.IntVars()}, ilp.Options{
		TimeLimit: opts.TimeLimit,
		MaxNodes:  opts.MaxNodes,
		LPOpts:    lp.Options{MaxIters: opts.LPMaxIters},
		CeilVars:  f.resid.AuxVars(),
		WarmBasis: wb,
	})
	if err != nil {
		return model.Metrics{}, err
	}
	f.basis = res.RootBasis
	stats.WarmStarted = res.RootWarmed
	stats.Nodes = res.Nodes

	in, a, ids := u.snapshot()
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		// Nothing placeable: keep the current state.
		stats.Elapsed = time.Since(start)
		u.stats = stats
		return model.ComputeMetrics(in, a, u.build.Consolidate), nil
	}
	placed := f.resid.DecodeStages(res.X)
	for l, id := range ids {
		if !u.waiting[id] {
			continue
		}
		if st, ok := placed[id]; ok {
			copy(a.Stages[l], st)
		}
	}
	if err := model.Verify(in, a, u.build.Consolidate); err != nil {
		return model.Metrics{}, fmt.Errorf("placement: fast replan verification: %w", err)
	}
	for l, id := range ids {
		if u.waiting[id] && a.Deployed(l) {
			st := append([]int(nil), a.Stages[l]...)
			u.greedy.pin(u.chains[id], st)
			u.admit(id, st)
			if err := f.resid.PinTo(id, st); err != nil {
				u.fast = nil // desync: rebuild lazily next replan
			}
			stats.Admitted++
		}
	}
	stats.Elapsed = time.Since(start)
	u.stats = stats
	return model.ComputeMetrics(in, a, u.build.Consolidate), nil
}

// replanFull is the reference path: re-encode the entire instance and pin
// every survivor, exactly the pre-fast-path behavior. Retained as the
// equivalence oracle and as the fallback when the incremental state cannot
// be trusted.
func (u *Updater) replanFull(opts ReplanOptions, start time.Time) (model.Metrics, error) {
	stats := ReplanStats{FullRebuild: true, Rebuilt: true}
	in, cur, ids := u.snapshot()
	build := u.build
	// Same adaptive consistency policy as SolveIP: tight rows while the
	// LP stays interruptible-sized, aggregated beyond.
	zCount := 0
	for _, c := range in.Chains {
		zCount += c.Len() * in.K()
	}
	build.ExactConsistency = zCount <= exactConsistencyLimit
	enc, err := model.Build(in, build)
	if err != nil {
		return model.Metrics{}, err
	}
	enc.PinPhysical(u.layout)
	for l, c := range in.Chains {
		if st, ok := u.live[c.ID]; ok {
			if err := enc.PinChain(l, st); err != nil {
				return model.Metrics{}, err
			}
		}
	}
	stats.InModel = len(in.Chains)
	wb := opts.WarmBasis
	if wb == nil {
		wb = u.fullBasis
	}
	res, err := ilp.Solve(&ilp.Problem{LP: enc.Prob, IntVars: enc.IntVars}, ilp.Options{
		TimeLimit:    opts.TimeLimit,
		MaxNodes:     opts.MaxNodes,
		LPOpts:       lp.Options{MaxIters: opts.LPMaxIters},
		PriorityVars: enc.XVars(),
		CeilVars:     enc.AuxVars(),
		WarmBasis:    wb,
	})
	if err != nil {
		return model.Metrics{}, err
	}
	u.fullBasis = res.RootBasis
	stats.WarmStarted = res.RootWarmed
	stats.Nodes = res.Nodes
	finish := func(m model.Metrics) (model.Metrics, error) {
		stats.Elapsed = time.Since(start)
		u.stats = stats
		return m, nil
	}
	if res.Status != ilp.Optimal && res.Status != ilp.Feasible {
		// Nothing placeable: keep the current state.
		return finish(model.ComputeMetrics(in, cur, u.build.Consolidate))
	}
	a := enc.Decode(res.X)
	if err := model.Verify(in, a, u.build.Consolidate); err != nil {
		return model.Metrics{}, fmt.Errorf("placement: replan verification: %w", err)
	}
	for l, id := range ids {
		if a.Deployed(l) && u.waiting[id] {
			u.live[id] = append([]int(nil), a.Stages[l]...)
			delete(u.waiting, id)
			u.admitted = append(u.admitted, id)
			stats.Admitted++
		}
	}
	// Newly used physical NFs extend the layout.
	for i := range a.X {
		for s := range a.X[i] {
			u.layout[i][s] = u.layout[i][s] || a.X[i][s]
		}
	}
	// The full path changed the live set outside the retained program;
	// rebuild it lazily rather than tracking a second delta protocol, and
	// re-sum the greedy state and ledger.
	if stats.Admitted > 0 {
		u.fast = nil
		u.rebuildAccounts()
	}
	return finish(model.ComputeMetrics(in, a, u.build.Consolidate))
}

// ReplanGreedy places waiting candidates with the Algorithm-2 heuristic
// over the residual resources, keeping survivors pinned. It is the prompt
// (no-IP) variant of Replan, used when update latency matters more than
// optimality (§V-D's trade-off).
//
// It runs in time proportional to the waiting set, not the live set: the
// waiting chains are tried in SolveGreedy's order (ascending ID, then
// stably by the Eq. 13 metric) against the retained greedy state, and what
// it admits is checked against the ledger — each admitted chain
// structurally (Eqs. 7–9, the K bound) against the grown layout, then every
// stage's blocks and the backplane load against their budgets. Survivors
// never move and the layout only grows, so this is the guarantee
// model.Verify gives over the whole assignment. It returns the ledger's
// metrics.
func (u *Updater) ReplanGreedy() (model.Metrics, error) {
	start := time.Now()
	stats := ReplanStats{Rebuilt: u.rebuilt, InModel: len(u.waiting)}
	u.rebuilt = false
	u.admitted = u.admitted[:0]
	ids := make([]int, 0, len(u.waiting))
	for id := range u.waiting {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	cands := make([]*model.Chain, len(ids))
	for i, id := range ids {
		cands[i] = u.chains[id]
	}
	before := u.Layout()
	u.greedy.firstFit(cands, func(i int, stages []int) {
		u.greedy.account(cands[i], stages, 1)
		u.admit(ids[i], append([]int(nil), stages...))
	})
	sort.Ints(u.admitted)
	if err := u.checkAdmitted(); err != nil {
		// Undo the admissions: back to waiting, the layout as it was, the
		// accounts re-summed.
		for _, id := range u.admitted {
			delete(u.live, id)
			u.waiting[id] = true
		}
		u.admitted = u.admitted[:0]
		for i := range before {
			copy(u.layout[i], before[i])
		}
		u.rebuildAccounts()
		return model.Metrics{}, fmt.Errorf("placement: greedy replan verification: %w", err)
	}
	// Greedy admissions may extend the layout and move chains live outside
	// the retained residual program; drop it.
	if len(u.admitted) > 0 {
		u.fast = nil
	}
	stats.Admitted = len(u.admitted)
	stats.Elapsed = time.Since(start)
	u.stats = stats
	return u.ledger.Metrics(), nil
}

// checkAdmitted checks the latest admissions against the current layout and
// the ledger's budgets.
func (u *Updater) checkAdmitted() error {
	S, K := u.sw.Stages, u.greedy.in.K()
	for _, id := range u.admitted {
		if err := model.CheckChain(u.chains[id], u.live[id], u.layout, S, K); err != nil {
			return err
		}
	}
	return u.ledger.Check()
}

// MaybeReconfigure solves the unrestricted placement from scratch; if the
// current objective falls below threshold × the global optimum, the global
// solution is adopted (modeling the §V-E full reconfiguration, which in a
// real deployment rewrites extensive rules or reboots the switch). It
// returns whether reconfiguration happened and the resulting metrics.
//
// Below the DecomposeAbove threshold the re-optimization is the exact IP;
// successive calls over an unchanged chain set share the full model's
// shape, so the solve warm-starts from the previous root basis (or from
// opts.WarmBasis), and a changed chain set changes the shape and the root
// deterministically solves cold. At or above the threshold the Lagrangian
// decomposition (SolveDecomposed) runs instead: the reference point is then
// a feasible placement with a certified optimality gap rather than a proven
// optimum. Either way LastReplan reports the solve's certified Gap.
func (u *Updater) MaybeReconfigure(threshold float64, opts ReplanOptions) (bool, model.Metrics, error) {
	start := time.Now()
	u.admitted = nil
	in, cur, ids := u.snapshot()
	curM := model.ComputeMetrics(in, cur, u.build.Consolidate)
	stats := ReplanStats{FullRebuild: true, Rebuilt: true, InModel: len(in.Chains)}
	above := opts.DecomposeAbove
	if above == 0 {
		above = DefaultDecomposeAbove
	}
	var full *Result
	var err error
	if above > 0 && len(in.Chains) >= above {
		full, err = SolveDecomposed(in, DecomposeOptions{
			Build:     u.build,
			TimeLimit: opts.TimeLimit,
			Workers:   opts.SolverWorkers,
		})
		if err != nil {
			return false, curM, err
		}
		stats.Decomposed = true
	} else {
		wb := opts.WarmBasis
		if wb == nil {
			wb = u.fullBasis
		}
		full, err = SolveIP(in, IPOptions{
			Build:      u.build,
			TimeLimit:  opts.TimeLimit,
			MaxNodes:   opts.MaxNodes,
			LPMaxIters: opts.LPMaxIters,
			WarmBasis:  wb,
		})
		if err != nil {
			return false, curM, err
		}
		u.fullBasis = full.RootBasis
		stats.WarmStarted = full.RootWarmed
		stats.Nodes = full.Nodes
	}
	stats.Gap = full.Gap
	finish := func() {
		stats.Elapsed = time.Since(start)
		u.stats = stats
	}
	if full.Assignment == nil || curM.Objective >= threshold*full.Objective {
		finish()
		return false, curM, nil
	}
	// Adopt the global solution wholesale.
	u.live = make(map[int][]int)
	u.waiting = make(map[int]bool)
	for l, id := range ids {
		if full.Assignment.Deployed(l) {
			u.live[id] = append([]int(nil), full.Assignment.Stages[l]...)
			stats.Admitted++
		} else {
			u.waiting[id] = true
		}
	}
	for i := range full.Assignment.X {
		copy(u.layout[i], full.Assignment.X[i])
	}
	// The adopted placement replaced the live set and layout wholesale; the
	// retained incremental program no longer describes them, and the greedy
	// state and ledger are re-summed.
	u.fast = nil
	u.rebuildAccounts()
	finish()
	return true, full.Metrics, nil
}
