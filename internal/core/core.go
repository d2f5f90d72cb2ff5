// Package core is the SFP system facade: the controller that runs the
// control-plane placement algorithms (internal/placement) and realizes
// their output on the virtualized data plane (internal/vswitch).
//
// A Controller owns one switch. Provision performs the initial joint
// placement of physical NFs and tenant SFCs; Depart and Arrive implement
// runtime update (§V-E) — departures release rules immediately, arrivals
// are placed incrementally against the pinned physical layout, and
// ReconfigureIfStale falls back to a full rebuild when the incremental
// state drifts too far from the global optimum.
package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
	"sfp/internal/wal"
)

// Algorithm selects the placement solver.
type Algorithm int

// Solvers.
const (
	// AlgoIP is the exact integer program ("SFP-IP").
	AlgoIP Algorithm = iota
	// AlgoApprox is LP relaxation + randomized rounding ("SFP-Appro.").
	AlgoApprox
	// AlgoGreedy is the Algorithm-2 heuristic.
	AlgoGreedy
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgoIP:
		return "sfp-ip"
	case AlgoApprox:
		return "sfp-appro"
	case AlgoGreedy:
		return "greedy"
	}
	return fmt.Sprintf("algo(%d)", int(a))
}

// Options configures a controller.
type Options struct {
	// Pipeline is the switch hardware description.
	Pipeline pipeline.Config
	// Consolidate selects the Eq. 11 memory model (recommended).
	Consolidate bool
	// Recirc is the allowed recirculation count R for placement.
	Recirc int
	// Algorithm picks the solver for Provision.
	Algorithm Algorithm
	// SolverTimeLimit bounds IP solves (Provision with AlgoIP and every
	// incremental replan). Zero means 10s — unbounded exact solves are a
	// foot-gun on anything beyond toy sizes.
	SolverTimeLimit time.Duration
	// SolverWorkers sets the control-plane solver worker count:
	// branch-and-bound workers for exact IP solves and replans, pricing
	// workers for decomposed full solves. 0 or 1 is the serial
	// deterministic reference; any count proves the same optimum, but
	// when optima tie the parallel search may return a different argmax.
	SolverWorkers int
	// DecomposeAbove routes full solves (Provision with AlgoIP and
	// ReconfigureIfStale's re-optimization) to the Lagrangian decomposition
	// solver once the tenant count reaches it: exact IP with a proven
	// optimum below, feasible placement with a certified optimality gap
	// (surfaced via LastReplan().Gap) above. Zero means
	// placement.DefaultDecomposeAbove; negative always solves exactly.
	DecomposeAbove int
	// Seed drives the randomized rounding.
	Seed int64
	// NoFallback disables the AlgoIP→AlgoApprox→AlgoGreedy degradation
	// chain: a solver timeout or error then fails the Provision instead
	// of trying the next-cheaper algorithm.
	NoFallback bool
	// IPNoWarmStart disables seeding the IP solver with the greedy
	// incumbent (reproduces the cold-solver behavior of the Fig. 9
	// experiment, where tight time limits return nothing).
	IPNoWarmStart bool
	// Logf, when set, receives operational log lines (solver fallbacks,
	// rollbacks). Nil discards them.
	Logf func(format string, args ...any)
	// Hook, when set, is called at named points inside mutating
	// transitions (e.g. "provision:journaled", "depart:deallocated").
	// The fault-injection harness uses it to kill the controller at
	// every possible crash point; production controllers leave it nil.
	Hook func(point string)
	// SnapshotEvery rotates the journal onto a fresh snapshot after this
	// many committed records. Zero means 1024; negative disables
	// automatic snapshots.
	SnapshotEvery int
}

func (o Options) withDefaults() Options {
	if o.Pipeline.Stages == 0 {
		o.Pipeline = pipeline.DefaultConfig()
	}
	if o.SolverTimeLimit == 0 {
		o.SolverTimeLimit = 10 * time.Second
	}
	if o.Recirc == 0 {
		o.Recirc = o.Pipeline.MaxPasses - 1
	}
	return o
}

// ProvisionInfo records how the last Provision's solve actually ran —
// in particular whether the graceful-degradation chain kicked in.
type ProvisionInfo struct {
	// Requested is the algorithm the Options asked for.
	Requested Algorithm
	// Used is the algorithm that produced the installed placement.
	Used Algorithm
	// FellBack is true when Used differs from Requested.
	FellBack bool
	// SolverStatus is the winning solver's status string.
	SolverStatus string
	// Attempts describes each failed solve ("sfp-ip: time limit ..."),
	// in order, before the winning one.
	Attempts []string
}

// Controller is the SFP control plane bound to one data plane.
type Controller struct {
	opts Options
	v    *vswitch.VSwitch

	updater *placement.Updater
	// sfcs maps tenant ID to its full SFC definition.
	sfcs map[uint32]*vswitch.SFC
	// placed tracks tenants currently installed in the data plane.
	placed map[uint32]bool
	// unrealized holds the tenants live in the planner but not placed: a
	// replan's admissions until their install succeeds, and any chain a
	// failed install left stranded.
	unrealized map[uint32]bool
	// need is ruleNeed over the placed tenants, patched on every install
	// and departure, so an install sizes physical NFs without a pass over
	// every chain.
	need needLedger
	// lastInfo describes the most recent Provision solve.
	lastInfo ProvisionInfo

	// log is the write-ahead journal; nil for non-durable controllers.
	log *wal.Log
	// recs counts committed records since the last snapshot rotation.
	recs int
	// snapBusy is set while a background snapshot (capture already taken)
	// is being serialized and rotated in; snapWG lets Close drain it.
	snapBusy atomic.Bool
	snapWG   sync.WaitGroup
}

// logf forwards to Options.Logf when set.
func (c *Controller) logf(format string, args ...any) {
	if c.opts.Logf != nil {
		c.opts.Logf(format, args...)
	}
}

// hook fires a named crash/trace point.
func (c *Controller) hook(point string) {
	if c.opts.Hook != nil {
		c.opts.Hook(point)
	}
}

// New creates a controller with an empty switch.
func New(opts Options) *Controller {
	opts = opts.withDefaults()
	return &Controller{
		opts:       opts,
		v:          vswitch.New(pipeline.New(opts.Pipeline)),
		sfcs:       make(map[uint32]*vswitch.SFC),
		placed:     make(map[uint32]bool),
		unrealized: make(map[uint32]bool),
		need:       newNeedLedger(opts.Pipeline.Stages),
	}
}

// VSwitch exposes the data plane (for sending packets in tests/examples).
func (c *Controller) VSwitch() *vswitch.VSwitch { return c.v }

// buildInstance derives the placement instance from SFC definitions.
func (c *Controller) buildInstance(sfcs []*vswitch.SFC) *model.Instance {
	in := &model.Instance{
		Switch: model.SwitchConfig{
			Stages:          c.opts.Pipeline.Stages,
			BlocksPerStage:  c.opts.Pipeline.BlocksPerStage,
			EntriesPerBlock: c.opts.Pipeline.EntriesPerBlock,
			CapacityGbps:    c.opts.Pipeline.CapacityGbps,
		},
		NumTypes: nf.TypeCount,
		Recirc:   c.opts.Recirc,
	}
	for _, s := range sfcs {
		ch := &model.Chain{ID: int(s.Tenant), BandwidthGbps: s.BandwidthGbps}
		for _, cfg := range s.NFs {
			rules := len(cfg.Rules)
			if rules == 0 {
				rules = 1
			}
			ch.NFs = append(ch.NFs, model.ChainNF{Type: int(cfg.Type), Rules: rules})
		}
		in.Chains = append(in.Chains, ch)
	}
	return in
}

// decomposeAbove resolves the tenant-count threshold above which full
// solves run the Lagrangian decomposition (0 = the placement default,
// negative = never).
func (c *Controller) decomposeAbove() int {
	if c.opts.DecomposeAbove == 0 {
		return placement.DefaultDecomposeAbove
	}
	return c.opts.DecomposeAbove
}

// solveWith runs one specific algorithm.
func (c *Controller) solveWith(algo Algorithm, in *model.Instance) (*placement.Result, error) {
	build := model.BuildOptions{Consolidate: c.opts.Consolidate}
	switch algo {
	case AlgoIP:
		if n := c.decomposeAbove(); n > 0 && len(in.Chains) >= n {
			// At scale the exact IP's root LP alone outlasts any sane time
			// limit; the decomposition returns a feasible placement with a
			// certified gap in milliseconds (exact IP remains the reference
			// below the threshold and via DecomposeAbove < 0).
			return placement.SolveDecomposed(in, placement.DecomposeOptions{
				Build: build, TimeLimit: c.opts.SolverTimeLimit, Workers: c.opts.SolverWorkers,
			})
		}
		return placement.SolveIP(in, placement.IPOptions{
			Build: build, TimeLimit: c.opts.SolverTimeLimit, NoWarmStart: c.opts.IPNoWarmStart,
			Workers: c.opts.SolverWorkers,
		})
	case AlgoApprox:
		return placement.SolveApprox(in, placement.ApproxOptions{Build: build, Seed: c.opts.Seed})
	case AlgoGreedy:
		return placement.SolveGreedy(in, placement.GreedyOptions{Consolidate: c.opts.Consolidate})
	}
	return nil, fmt.Errorf("core: unknown algorithm %v", algo)
}

// fallbackChain lists the algorithms to try, most to least precise,
// starting from the requested one.
func fallbackChain(a Algorithm) []Algorithm {
	switch a {
	case AlgoIP:
		return []Algorithm{AlgoIP, AlgoApprox, AlgoGreedy}
	case AlgoApprox:
		return []Algorithm{AlgoApprox, AlgoGreedy}
	default:
		return []Algorithm{a}
	}
}

// solve runs the configured algorithm with graceful degradation: when a
// solver errors, proves infeasibility, or hits its time limit with no
// incumbent (an empty placement), the next-cheaper algorithm in the
// AlgoIP→AlgoApprox→AlgoGreedy chain takes over instead of failing the
// whole Provision. The chain taken is recorded in ProvisionInfo.
func (c *Controller) solve(in *model.Instance) (*placement.Result, ProvisionInfo, error) {
	info := ProvisionInfo{Requested: c.opts.Algorithm, Used: c.opts.Algorithm}
	chain := fallbackChain(c.opts.Algorithm)
	if c.opts.NoFallback {
		chain = chain[:1]
	}
	var lastErr error
	for i, algo := range chain {
		res, err := c.solveWith(algo, in)
		var reason string
		switch {
		case err != nil:
			reason = err.Error()
			lastErr = err
		case res.Assignment == nil:
			reason = fmt.Sprintf("no assignment (%s)", res.Status)
			lastErr = fmt.Errorf("core: %s produced no assignment (%s)", algo, res.Status)
		case strings.HasPrefix(res.Status, "limit"):
			// SolveIP under a time limit with no incumbent reports the
			// empty placement ("limit(no-incumbent)") — worthless when a
			// heuristic can do better.
			reason = "time limit with no incumbent"
			lastErr = fmt.Errorf("core: %s hit its time limit with no incumbent", algo)
		default:
			info.Used = algo
			info.FellBack = i > 0
			info.SolverStatus = res.Status
			if info.FellBack {
				c.logf("core: solver fallback: %s -> %s after %v", info.Requested, algo, info.Attempts)
			}
			return res, info, nil
		}
		info.Attempts = append(info.Attempts, fmt.Sprintf("%s: %s", algo, reason))
		c.logf("core: %s solve failed (%s), trying next solver", algo, reason)
	}
	return nil, info, fmt.Errorf("core: all solvers failed: %w", lastErr)
}

// LastProvision reports how the most recent Provision's solve went
// (requested vs. used algorithm, fallback attempts).
func (c *Controller) LastProvision() ProvisionInfo { return c.lastInfo }

// LastReplan reports how the most recent incremental replan executed
// (fast-path vs. full rebuild, warm start, admissions, solve time; a
// greedy replan reports only admissions, tried chains, rebuilds and time).
// Zero value before the first replan.
func (c *Controller) LastReplan() placement.ReplanStats {
	if c.updater == nil {
		return placement.ReplanStats{}
	}
	return c.updater.LastReplan()
}

// Provision performs the initial joint placement for a batch of tenant
// SFCs and installs the result on the switch. Tenants the optimizer leaves
// out (resources!) remain known as candidates for later replans. It returns
// the achieved metrics.
func (c *Controller) Provision(sfcs []*vswitch.SFC) (model.Metrics, error) {
	byTenant := make(map[uint32]*vswitch.SFC, len(sfcs))
	for _, s := range sfcs {
		if _, dup := c.sfcs[s.Tenant]; dup {
			return model.Metrics{}, fmt.Errorf("core: tenant %d already provisioned", s.Tenant)
		}
		byTenant[s.Tenant] = s
	}
	if c.updater != nil {
		return model.Metrics{}, fmt.Errorf("core: already provisioned; use Arrive/Depart")
	}
	in := c.buildInstance(sfcs)
	res, info, err := c.solve(in)
	if err != nil {
		return model.Metrics{}, err
	}
	c.lastInfo = info
	// Journal the full intended state and fsync it BEFORE the first
	// southbound effect: after a crash the journal is always at least as
	// new as the switch, so recovery plus reconciliation can finish or
	// undo whatever the install got to.
	if c.log != nil {
		st := &stateRec{
			Provisioned: true,
			SFCs:        fromSFCs(sortSFCs(sfcs)),
			Live:        deployedEntries(in, res.Assignment, nil),
			Layout:      cloneLayout(res.Assignment.X),
		}
		ic := info
		st.Info = &ic
		if err := c.journalCommit(recProvisionBegin, st); err != nil {
			return model.Metrics{}, err
		}
	}
	c.hook("provision:journaled")
	journal, err := c.install("provision", res.Assignment.X, deployedChains(in, res.Assignment), byTenant)
	if err != nil {
		c.abort(recProvisionAbort)
		return model.Metrics{}, err
	}
	build := model.BuildOptions{Consolidate: c.opts.Consolidate}
	c.updater, err = placement.NewUpdater(in, res.Assignment, build)
	if err != nil {
		// The switch is configured but the incremental-update state could
		// not be built: undo the installs so nothing is stranded.
		pf := c.partialFailure("provision", err, journal)
		c.abort(recProvisionAbort)
		return model.Metrics{}, pf
	}
	// Commit: tenants become known only once fully realized.
	for _, s := range sfcs {
		c.sfcs[s.Tenant] = s
	}
	c.hook("provision:precommit")
	if err := c.journalCommit(recProvisionCommit, nil); err != nil {
		return res.Metrics, err
	}
	c.hook("provision:committed")
	return res.Metrics, nil
}

// sortSFCs returns the batch in ascending-tenant order (the canonical
// serialization order) without mutating the caller's slice.
func sortSFCs(sfcs []*vswitch.SFC) []*vswitch.SFC {
	out := append([]*vswitch.SFC(nil), sfcs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}

// abort journals a bare abort marker; best-effort, since the in-memory
// rollback already happened and a journal error cannot unwind it (an
// uncommitted begin record is presumed aborted at recovery anyway).
func (c *Controller) abort(kind byte) {
	if err := c.journalCommit(kind, nil); err != nil {
		c.logf("core: journaling abort: %v", err)
	}
}

// install realizes planner-deployed chains on the (empty or partially
// filled) data plane: the layout's physical NFs sized to their assigned
// rules, then the pending chains' tenant rules.
// It is transactional: the full rule plan is staged first, each step is
// journaled as it applies, and any step failure rolls back this install's
// already-applied steps (tenant rules, newly created physical NFs) so the
// data plane is never left half-configured. Failures surface as
// *PartialFailureError. On success the journal is returned so the caller
// can extend the transaction (e.g. roll back if a later step fails).
// byTenant maps tenant ID to chain definition for every pending tenant
// (extra entries are harmless — already-placed tenants are skipped).
func (c *Controller) install(op string, layout [][]bool, pending []pendingChain, byTenant map[uint32]*vswitch.SFC) (*installJournal, error) {
	journal := &installJournal{need: newNeedLedger(c.opts.Pipeline.Stages)}
	if err := c.apply(layout, pending, byTenant, journal); err != nil {
		pf := c.partialFailure(op, err, journal)
		c.logf("core: %v", pf)
		return nil, pf
	}
	return journal, nil
}

// pendingChain is one planner-deployed chain to realize on the switch.
type pendingChain struct {
	ch     *model.Chain
	stages []int
}

// deployedChains lists an assignment's deployed chains in instance order.
func deployedChains(in *model.Instance, a *model.Assignment) []pendingChain {
	var out []pendingChain
	for l, ch := range in.Chains {
		if a.Deployed(l) {
			out = append(out, pendingChain{ch: ch, stages: a.Stages[l]})
		}
	}
	return out
}

// needLedger is the rule capacity demanded per (type, stage) cell by a set
// of deployed chains, dense over the NF types and the stages.
type needLedger struct {
	stages int
	cells  []int // [(type-1)*stages + stage]
}

func newNeedLedger(stages int) needLedger {
	return needLedger{stages: stages, cells: make([]int, nf.TypeCount*stages)}
}

// at is the demand on the cell of NF type typ (1-based) on stage s.
func (n needLedger) at(typ, s int) int { return n.cells[(typ-1)*n.stages+s] }

// add counts (sign 1) or uncounts (sign -1) one chain: its NF rule counts,
// the per-pass REC catch-alls carried by tail NFs, and the steering
// catch-alls for tail-less passes that live in the chain's first NF table
// (see vswitch.AllocateAt).
func (n needLedger) add(ch *model.Chain, stages []int, sign int) {
	S := n.stages
	cell := func(j int) *int { return &n.cells[(ch.NFs[j].Type-1)*S+stages[j]%S] }
	withBoxes, prev := 0, -1
	for j, k := range stages {
		*cell(j) += sign * ch.NFs[j].Rules
		// The tail NF of a non-final pass also carries the tenant's
		// catch-all REC rule (one extra entry).
		if j+1 < len(stages) && stages[j+1]/S > k/S {
			*cell(j) += sign
		}
		if k/S != prev {
			withBoxes, prev = withBoxes+1, k/S
		}
	}
	// Every non-final pass that holds a box has a tail; each pass without
	// one is steered by a catch-all in the first NF's table.
	*cell(0) += sign * (stages[len(stages)-1]/S + 1 - withBoxes)
}

// ruleNeed computes the rule capacity demanded per (type, stage) cell by
// every deployed chain of an assignment.
func ruleNeed(in *model.Instance, a *model.Assignment) needLedger {
	need := newNeedLedger(in.Switch.Stages)
	for _, p := range deployedChains(in, a) {
		need.add(p.ch, p.stages, 1)
	}
	return need
}

// apply performs the install steps, recording each in the journal.
func (c *Controller) apply(layout [][]bool, pending []pendingChain, byTenant map[uint32]*vswitch.SFC, journal *installJournal) error {
	S := c.opts.Pipeline.Stages
	E := c.opts.Pipeline.EntriesPerBlock
	// Size physical NFs for the placed chains plus the pending ones.
	more := newNeedLedger(S)
	for _, p := range pending {
		more.add(p.ch, p.stages, 1)
	}
	// Install or grow physical NFs. Block-align capacities so the reserved
	// memory matches the model's accounting.
	for i := 1; i <= len(layout); i++ {
		for s := 0; s < S; s++ {
			if !layout[i-1][s] {
				continue
			}
			capacity := c.need.at(i, s) + more.at(i, s)
			if capacity > 0 {
				capacity = (capacity + E - 1) / E * E
			}
			typ := nf.Type(i)
			if existing := c.v.FindPhysical(s, typ); existing != nil {
				if capacity > existing.Table.Capacity {
					// Grows are not journaled: they cannot strand tenant
					// rules, and spare capacity after a rollback is benign.
					if err := c.v.Pipe.Stages[s].GrowTable(existing.Table.Name, capacity); err != nil {
						return err
					}
				}
				continue
			}
			if _, err := c.v.InstallPhysicalNF(s, typ, capacity); err != nil {
				return err
			}
			journal.physical = append(journal.physical, StagedNF{Stage: s, Type: typ})
		}
	}
	// Install tenant rules at the optimizer's placements, all pending
	// tenants in one batch pass over the pipeline. AllocateBatch admits
	// item-by-item exactly as sequential AllocateAt calls would, and on
	// failure rolls its partial application back internally; the tenants
	// it undid are recorded in the journal so the PartialFailureError
	// reports them as rolled back.
	items := make([]vswitch.BatchItem, 0, len(pending))
	batched := make([]pendingChain, 0, len(pending))
	for _, p := range pending {
		sfc, ok := byTenant[uint32(p.ch.ID)]
		if !ok || c.placed[sfc.Tenant] {
			continue
		}
		placements := make([]vswitch.Placement, len(p.stages))
		for j, k := range p.stages {
			placements[j] = vswitch.Placement{
				NFIndex: j,
				Type:    nf.Type(p.ch.NFs[j].Type),
				Stage:   k % S,
				Pass:    k / S,
			}
		}
		items = append(items, vswitch.BatchItem{SFC: sfc, Placements: placements})
		batched = append(batched, p)
	}
	if len(items) == 0 {
		return nil
	}
	allocs, err := c.v.AllocateBatch(items)
	if err != nil {
		var be *vswitch.BatchError
		if errors.As(err, &be) {
			journal.undone = append(journal.undone, be.Applied...)
			return fmt.Errorf("core: installing tenant %d: %w", be.Tenant, be.Cause)
		}
		return err
	}
	for i, al := range allocs {
		p := batched[i]
		c.placed[al.Tenant] = true
		delete(c.unrealized, al.Tenant)
		c.need.add(p.ch, p.stages, 1)
		journal.need.add(p.ch, p.stages, 1)
		journal.tenants = append(journal.tenants, al.Tenant)
	}
	return nil
}

// unplace forgets a departed tenant's placement: it leaves the placed set
// and its rule demand leaves the need ledger.
func (c *Controller) unplace(tenant uint32, ch *model.Chain, stages []int) {
	delete(c.placed, tenant)
	c.need.add(ch, stages, -1)
}

// resync recomputes unrealized and need from the planner and the placed
// set, wherever the placed set is rebuilt wholesale.
func (c *Controller) resync() {
	c.unrealized = make(map[uint32]bool)
	c.need = newNeedLedger(c.opts.Pipeline.Stages)
	if c.updater == nil {
		return
	}
	for t := range c.sfcs {
		ch, stages, live := c.updater.Placement(int(t))
		switch {
		case !live:
		case c.placed[t]:
			c.need.add(ch, stages, 1)
		default:
			c.unrealized[t] = true
		}
	}
}

// Depart removes a tenant from both planes. Like every other mutating
// transition it runs as a journaled transaction: the intent is durable
// before the deallocation touches the switch, and a planner failure after
// the deallocation restores the tenant's rules from the captured undo
// state instead of stranding a half-departed tenant.
func (c *Controller) Depart(tenant uint32) error {
	if c.updater == nil {
		return fmt.Errorf("core: not provisioned")
	}
	if _, known := c.sfcs[tenant]; !known {
		return fmt.Errorf("core: unknown tenant %d", tenant)
	}
	placed := c.placed[tenant]
	if err := c.journalCommit(recDepartBegin, &departRec{Tenant: tenant, Placed: placed}); err != nil {
		return err
	}
	c.hook("depart:journaled")
	if placed {
		ch, stages, _ := c.updater.Placement(int(tenant))
		// Capture the undo state before touching the switch: Deallocate
		// frees the rules, so the restore must come from a copy.
		undo := c.v.Allocations(tenant)
		if err := c.v.Deallocate(tenant); err != nil {
			c.abort(recDepartAbort)
			return err
		}
		c.hook("depart:deallocated")
		if err := c.updater.Depart(int(tenant)); err != nil {
			// Planner refused: re-install the captured allocation so the
			// data plane matches the still-live planner state.
			if undo != nil {
				if _, rerr := c.v.AllocateAt(undo.Spec, undo.Placements); rerr != nil {
					err = fmt.Errorf("%w (restoring rules also failed: %v)", err, rerr)
				}
			}
			c.abort(recDepartAbort)
			return err
		}
		c.unplace(tenant, ch, stages)
	} else {
		// A waiting tenant has no rules, but the planner still knows it:
		// withdraw it so future replans stop considering a ghost.
		c.updater.Withdraw(int(tenant))
		delete(c.unrealized, tenant)
	}
	delete(c.sfcs, tenant)
	c.hook("depart:precommit")
	if err := c.journalCommit(recDepartCommit, nil); err != nil {
		return err
	}
	c.hook("depart:committed")
	return nil
}

// DepartMany removes a batch of tenants from both planes, equivalent to
// sequential Depart calls but amortized: one journaled transaction (one
// begin fsync, one commit fsync), one batched deallocate pass over the
// data plane's tables, and one cheap residual patch per tenant in the
// planner — no solve. Like Depart it journals the intent before touching
// the switch, and on a planner refusal partway through it restores the
// remaining tenants' rules from the captured undo state and commits only
// the prefix that fully departed, so both planes stay consistent.
func (c *Controller) DepartMany(tenants []uint32) error {
	if c.updater == nil {
		return fmt.Errorf("core: not provisioned")
	}
	if len(tenants) == 0 {
		return nil
	}
	seen := make(map[uint32]bool, len(tenants))
	entries := make([]departRec, 0, len(tenants))
	var placedTenants []uint32
	for _, t := range tenants {
		if _, known := c.sfcs[t]; !known {
			return fmt.Errorf("core: unknown tenant %d", t)
		}
		if seen[t] {
			return fmt.Errorf("core: tenant %d appears twice in batch", t)
		}
		seen[t] = true
		placed := c.placed[t]
		entries = append(entries, departRec{Tenant: t, Placed: placed})
		if placed {
			placedTenants = append(placedTenants, t)
		}
	}
	if err := c.journalCommit(recDepartManyBegin, &departManyRec{Entries: entries}); err != nil {
		return err
	}
	c.hook("departmany:journaled")
	// Capture the undo state before touching the switch: DeallocateBatch
	// frees the rules, so any restore must come from copies.
	undos := make(map[uint32]*vswitch.Allocation, len(placedTenants))
	for _, t := range placedTenants {
		undos[t] = c.v.Allocations(t)
	}
	// One pass over every table removes the whole batch; all-or-nothing,
	// so a failure here leaves the switch unchanged.
	if err := c.v.DeallocateBatch(placedTenants); err != nil {
		c.abort(recDepartManyAbort)
		return err
	}
	c.hook("departmany:deallocated")
	// Patch the planner: each departure is a cheap residual delta, no
	// solve. A refusal partway splits the batch — the prefix has fully
	// departed, the rest get their rules restored and stay live.
	for i, e := range entries {
		var perr error
		if e.Placed {
			ch, stages, _ := c.updater.Placement(int(e.Tenant))
			if perr = c.updater.Depart(int(e.Tenant)); perr == nil {
				c.unplace(e.Tenant, ch, stages)
			}
		} else {
			c.updater.Withdraw(int(e.Tenant))
			delete(c.unrealized, e.Tenant)
		}
		if perr == nil {
			delete(c.sfcs, e.Tenant)
			continue
		}
		// Restore the data-plane rules of this and every remaining placed
		// tenant; the planner still considers them live.
		err := perr
		for _, rest := range entries[i:] {
			undo := undos[rest.Tenant]
			if !rest.Placed || undo == nil {
				continue
			}
			if _, rerr := c.v.AllocateAt(undo.Spec, undo.Placements); rerr != nil {
				err = fmt.Errorf("%w (restoring tenant %d also failed: %v)", err, rest.Tenant, rerr)
			}
		}
		departed := make([]uint32, 0, i)
		for _, done := range entries[:i] {
			departed = append(departed, done.Tenant)
		}
		c.hook("departmany:precommit")
		if jerr := c.journalCommit(recDepartManyCommit, &abortRec{Tenants: departed}); jerr != nil {
			c.logf("core: journaling partial departmany commit: %v", jerr)
		}
		return err
	}
	c.hook("departmany:precommit")
	if err := c.journalCommit(recDepartManyCommit, nil); err != nil {
		return err
	}
	c.hook("departmany:committed")
	return nil
}

// Arrive registers a new tenant SFC and replans incrementally: survivors
// stay where they are; the arrival (and any earlier waiting candidates)
// are placed into free resources. It reports whether this tenant was
// placed.
func (c *Controller) Arrive(sfc *vswitch.SFC) (bool, error) {
	if _, err := c.ArriveMany([]*vswitch.SFC{sfc}); err != nil {
		return false, err
	}
	return c.placed[sfc.Tenant], nil
}

// ArriveMany registers a batch of new tenant SFCs and amortizes the
// arrival cost: all chains are registered first, ONE incremental replan
// places them (plus any earlier waiting candidates), and the delta is
// installed in a single batch pass over the data plane. It returns the
// tenants from this batch that were placed. On an install failure the
// data plane is rolled back and the whole batch is withdrawn from the
// planner and registry, as if ArriveMany was never called; earlier
// waiting candidates the replan admitted stay known and will be retried
// by the next replan. A replan failure leaves the batch registered as
// waiting candidates (matching Arrive's long-standing semantics).
func (c *Controller) ArriveMany(sfcs []*vswitch.SFC) ([]uint32, error) {
	if c.updater == nil {
		return nil, fmt.Errorf("core: not provisioned")
	}
	if len(sfcs) == 0 {
		return nil, nil
	}
	for i, s := range sfcs {
		if _, dup := c.sfcs[s.Tenant]; dup {
			return nil, fmt.Errorf("core: tenant %d already known", s.Tenant)
		}
		for _, earlier := range sfcs[:i] {
			if earlier.Tenant == s.Tenant {
				return nil, fmt.Errorf("core: tenant %d appears twice in batch", s.Tenant)
			}
		}
	}
	for _, s := range sfcs {
		ch := c.buildInstance([]*vswitch.SFC{s}).Chains[0]
		if err := c.updater.Arrive(ch); err != nil {
			// Withdraw the part of the batch already registered so the
			// planner matches the registry.
			for _, done := range sfcs {
				if done.Tenant == s.Tenant {
					break
				}
				c.updater.Withdraw(int(done.Tenant))
				delete(c.sfcs, done.Tenant)
			}
			return nil, err
		}
		c.sfcs[s.Tenant] = s
	}
	c.hook("arrive:registered")
	// Stage the registration record: it becomes durable together with the
	// place intent under a single fsync (or alone, if the replan fails and
	// the batch stays waiting).
	if err := c.journal(recArriveRegister, &registerRec{SFCs: fromSFCs(sortSFCs(sfcs))}); err != nil {
		for _, s := range sfcs {
			c.updater.Withdraw(int(s.Tenant))
			delete(c.sfcs, s.Tenant)
		}
		return nil, err
	}
	if _, err := c.place(sfcs); err != nil {
		return nil, err
	}
	var placed []uint32
	for _, s := range sfcs {
		if c.placed[s.Tenant] {
			placed = append(placed, s.Tenant)
		}
	}
	return placed, nil
}

// Replan re-runs the incremental placement over the waiting candidates
// and realizes whatever it newly admits, as one journaled transaction. It
// returns the tenants newly placed by this call. With nothing waiting and
// nothing stranded it is a cheap no-op.
func (c *Controller) Replan() ([]uint32, error) {
	if c.updater == nil {
		return nil, fmt.Errorf("core: not provisioned")
	}
	if c.updater.Waiting() == 0 && len(c.unrealized) == 0 {
		return nil, nil
	}
	return c.place(nil)
}

// place runs one incremental replan and realizes the newly admitted
// chains in the data plane, as a journaled transaction (placeBegin before
// the install, placeCommit/placeAbort after). batch lists the arrivals to
// withdraw wholesale when the install fails (nil for a bare Replan). It
// returns the tenants this call placed.
func (c *Controller) place(batch []*vswitch.SFC) ([]uint32, error) {
	if err := c.replan(); err != nil {
		// Keep any staged registration durable: the batch stays known as
		// waiting candidates for the next replan.
		if cerr := c.journalCommit(0, nil); cerr != nil {
			c.logf("core: committing registration: %v", cerr)
		}
		return nil, err
	}
	for _, id := range c.updater.Admitted() {
		c.unrealized[uint32(id)] = true
	}
	// The delta is every deployed chain not yet realized on the switch —
	// the replan's admissions plus any chain a previous failed install
	// left stranded.
	tenants := sortedKeys(c.unrealized)
	delta := make([]liveEntry, 0, len(tenants))
	pending := make([]pendingChain, 0, len(tenants))
	for _, t := range tenants {
		ch, stages, _ := c.updater.Placement(int(t))
		delta = append(delta, liveEntry{Tenant: t, Stages: stages})
		pending = append(pending, pendingChain{ch: ch, stages: stages})
	}
	layout := c.updater.Layout()
	if err := c.journalCommit(recPlaceBegin, &placeRec{Live: delta, Layout: layout}); err != nil {
		return nil, err
	}
	c.hook("place:journaled")
	if _, err := c.install("arrive", layout, pending, c.sfcs); err != nil {
		// The data plane was rolled back by install; erase the batch from
		// the planner and the registry so the controller forgets it.
		// Chains the replan admitted beyond the batch stay live in the
		// planner and are re-attempted by the next install pass.
		withdrawn := make([]uint32, 0, len(batch))
		for _, s := range batch {
			c.updater.Withdraw(int(s.Tenant))
			delete(c.sfcs, s.Tenant)
			delete(c.unrealized, s.Tenant)
			withdrawn = append(withdrawn, s.Tenant)
		}
		if jerr := c.journalCommit(recPlaceAbort, &abortRec{Tenants: withdrawn}); jerr != nil {
			c.logf("core: journaling abort: %v", jerr)
		}
		return nil, err
	}
	c.hook("place:precommit")
	if err := c.journalCommit(recPlaceCommit, nil); err != nil {
		return nil, err
	}
	c.hook("place:committed")
	var newly []uint32
	for _, e := range delta {
		if c.placed[e.Tenant] {
			newly = append(newly, e.Tenant)
		}
	}
	return newly, nil
}

// replan runs one incremental replan with the controller's configured
// algorithm. Greedy controllers take the pin-respecting greedy pass
// (§V-D's prompt update): unlike the pinned IP it cannot time out, so a
// large ArriveMany batch never silently strands the whole chunk as
// waiting candidates. Everything else keeps the pinned IP under the
// solver time limit.
func (c *Controller) replan() error {
	if c.opts.Algorithm == AlgoGreedy {
		_, err := c.updater.ReplanGreedy()
		return err
	}
	_, err := c.updater.Replan(placement.ReplanOptions{
		TimeLimit:     c.opts.SolverTimeLimit,
		SolverWorkers: c.opts.SolverWorkers,
	})
	return err
}

// Snapshot exposes the planner's current instance, assignment, and
// metrics (observability: cross-check the data plane against the model,
// e.g. with model.Verify).
func (c *Controller) Snapshot() (*model.Instance, *model.Assignment, model.Metrics, error) {
	if c.updater == nil {
		return nil, nil, model.Metrics{}, fmt.Errorf("core: not provisioned")
	}
	in, a, m := c.updater.Current()
	return in, a, m, nil
}

// Metrics returns the current placement metrics.
func (c *Controller) Metrics() (model.Metrics, error) {
	if c.updater == nil {
		return model.Metrics{}, fmt.Errorf("core: not provisioned")
	}
	_, _, m := c.updater.Current()
	return m, nil
}

// ReconfigureIfStale compares the incremental state against a fresh global
// optimization and rebuilds the whole data plane when the objective gap
// exceeds the threshold (§V-E: "once the distance between the current
// configuration and the optimal one exceeds the threshold, the whole SFCs
// and pipeline would be automatically re-configured"). Returns whether a
// rebuild happened.
func (c *Controller) ReconfigureIfStale(threshold float64) (bool, error) {
	if c.updater == nil {
		return false, fmt.Errorf("core: not provisioned")
	}
	// Full plumbing, like the replan path: worker count and decomposition
	// threshold ride along, and the updater re-enters its retained full-model
	// basis on the exact path (ReplanOptions.WarmBasis stays nil so the
	// internally retained basis applies). The solve's certified gap is
	// surfaced through LastReplan().Gap.
	did, _, err := c.updater.MaybeReconfigure(threshold, placement.ReplanOptions{
		TimeLimit:      c.opts.SolverTimeLimit,
		SolverWorkers:  c.opts.SolverWorkers,
		DecomposeAbove: c.opts.DecomposeAbove,
	})
	if err != nil || !did {
		return false, err
	}
	// The planner's live set changed wholesale.
	c.resync()
	// The planner has adopted the new global plan; journal it in full
	// before wiping the data plane, so a crash mid-rebuild recovers the
	// adopted plan with an empty placed set and Reconcile re-realizes it.
	if err := c.journalCommit(recReconfigBegin, c.captureState()); err != nil {
		return true, err
	}
	c.hook("reconfig:journaled")
	// Full rebuild: fresh pipeline, reinstall everything at the new
	// placements (the disruptive path the paper warns costs a reboot).
	c.v = vswitch.New(pipeline.New(c.opts.Pipeline))
	c.placed = make(map[uint32]bool)
	c.resync()
	in, a, _ := c.updater.Current()
	if _, err := c.install("reconfigure", a.X, deployedChains(in, a), c.sfcs); err != nil {
		c.abort(recReconfigAbort)
		return true, err
	}
	c.hook("reconfig:precommit")
	if err := c.journalCommit(recReconfigCommit, nil); err != nil {
		return true, err
	}
	c.hook("reconfig:committed")
	return true, nil
}

// Replayer returns the controller's switch as a trace processor — the
// vswitch satisfies traffic.Processor directly, so captured or synthesized
// traces can be replayed against a provisioned switch and aggregated into
// latency/drop statistics.
func (c *Controller) Replayer() traffic.Processor { return c.v }

// PlacedTenants returns the tenants currently installed in the data plane.
func (c *Controller) PlacedTenants() []uint32 {
	out := make([]uint32, 0, len(c.placed))
	for t := range c.placed {
		out = append(out, t)
	}
	return out
}
