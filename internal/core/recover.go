package core

import (
	"fmt"
	"sort"

	"sfp/internal/model"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
	"sfp/internal/vswitch"
	"sfp/internal/wal"
)

// replayState folds journal records into the controller's durable state.
// Begin records park in pend*; the matching commit applies them, an abort
// (or end of journal — presumed abort) discards them.
type replayState struct {
	provisioned bool
	sfcs        map[uint32]*vswitch.SFC
	live        map[uint32][]int
	placed      map[uint32]bool
	layout      [][]bool
	info        ProvisionInfo

	pendKind       byte
	pendState      *stateRec
	pendPlace      *placeRec
	pendDepartMany *departManyRec
}

func newReplayState() *replayState {
	return &replayState{
		sfcs:   make(map[uint32]*vswitch.SFC),
		live:   make(map[uint32][]int),
		placed: make(map[uint32]bool),
	}
}

func (s *replayState) clearPending() {
	s.pendKind, s.pendState, s.pendPlace, s.pendDepartMany = 0, nil, nil, nil
}

// placed-set derivation modes for adoptState.
const (
	placedFromField = iota // snapshot: trust the recorded Placed list
	placedFromLive         // provision/reconfig commit: install placed all live chains
	placedEmpty            // reconfig abort: fresh switch rolled back empty
)

func (s *replayState) adoptState(st *stateRec, mode int) {
	s.provisioned = st.Provisioned
	s.sfcs = make(map[uint32]*vswitch.SFC, len(st.SFCs))
	for _, sfc := range st.SFCs {
		s.sfcs[sfc.Tenant] = sfc
	}
	s.live = make(map[uint32][]int, len(st.Live))
	for _, e := range st.Live {
		s.live[e.Tenant] = append([]int(nil), e.Stages...)
	}
	s.layout = cloneLayout(st.Layout)
	if st.Info != nil {
		s.info = *st.Info
	}
	s.placed = make(map[uint32]bool)
	switch mode {
	case placedFromField:
		for _, t := range st.Placed {
			s.placed[t] = true
		}
	case placedFromLive:
		for t := range s.live {
			s.placed[t] = true
		}
	}
}

// apply folds one journal record, binary or legacy JSON, into the state.
func (s *replayState) apply(rec []byte) error {
	kind, p, err := decodeRec(rec)
	if err != nil {
		return err
	}
	switch kind {
	case recSnapshot:
		s.clearPending()
		s.adoptState(p.(*stateRec), placedFromField)

	case recProvisionBegin, recReconfigBegin:
		s.pendKind, s.pendState = kind, p.(*stateRec)

	case recProvisionCommit:
		if s.pendKind == recProvisionBegin && s.pendState != nil {
			s.adoptState(s.pendState, placedFromLive)
		}
		s.clearPending()

	case recReconfigCommit:
		if s.pendKind == recReconfigBegin && s.pendState != nil {
			s.adoptState(s.pendState, placedFromLive)
		}
		s.clearPending()

	case recReconfigAbort:
		// The planner adopted the new global plan before the rebuild began
		// and keeps it after the failed install; only the data plane (and
		// therefore the placed set) rolled back to empty.
		if s.pendKind == recReconfigBegin && s.pendState != nil {
			s.adoptState(s.pendState, placedEmpty)
		}
		s.clearPending()

	case recProvisionAbort:
		s.clearPending()

	case recArriveRegister:
		for _, sfc := range p.(*registerRec).SFCs {
			s.sfcs[sfc.Tenant] = sfc
		}

	case recPlaceBegin:
		s.pendKind, s.pendPlace = kind, p.(*placeRec)

	case recPlaceCommit:
		if s.pendKind == recPlaceBegin && s.pendPlace != nil {
			for _, e := range s.pendPlace.Live {
				s.live[e.Tenant] = append([]int(nil), e.Stages...)
				s.placed[e.Tenant] = true
			}
			if s.pendPlace.Layout != nil {
				s.layout = cloneLayout(s.pendPlace.Layout)
			}
		}
		s.clearPending()

	case recPlaceAbort:
		a := p.(*abortRec)
		if s.pendKind == recPlaceBegin && s.pendPlace != nil {
			// The replan's planner mutations survive the failed install
			// (admitted chains stay live, the layout keeps its growth);
			// only the withdrawn batch is erased, and nothing new is
			// placed in the data plane.
			withdrawn := make(map[uint32]bool, len(a.Tenants))
			for _, t := range a.Tenants {
				withdrawn[t] = true
			}
			for _, e := range s.pendPlace.Live {
				if !withdrawn[e.Tenant] {
					s.live[e.Tenant] = append([]int(nil), e.Stages...)
				}
			}
			if s.pendPlace.Layout != nil {
				s.layout = cloneLayout(s.pendPlace.Layout)
			}
		}
		for _, t := range a.Tenants {
			delete(s.sfcs, t)
			delete(s.live, t)
			delete(s.placed, t)
		}
		s.clearPending()

	case recDepartBegin:
		// A legacy single-tenant begin is a one-entry batch; its commit
		// and abort share the batch cases below.
		s.pendKind, s.pendDepartMany = recDepartManyBegin, &departManyRec{Entries: []departRec{*p.(*departRec)}}

	case recDepartManyBegin:
		s.pendKind, s.pendDepartMany = kind, p.(*departManyRec)

	case recDepartManyCommit, recDepartCommit:
		if s.pendKind == recDepartManyBegin && s.pendDepartMany != nil {
			// A bare commit removes the whole batch; a commit carrying
			// an abortRec removes only the listed tenants (the planner
			// refused partway and the rest were restored in place).
			var departed []uint32
			if a, ok := p.(*abortRec); ok {
				departed = a.Tenants
			} else {
				for _, e := range s.pendDepartMany.Entries {
					departed = append(departed, e.Tenant)
				}
			}
			for _, t := range departed {
				delete(s.sfcs, t)
				delete(s.live, t)
				delete(s.placed, t)
			}
		}
		s.clearPending()

	case recDepartManyAbort, recDepartAbort:
		s.clearPending()
	}
	return nil
}

// Recover rebuilds a durable controller from the journal in dir, binding
// it to a fresh, empty data plane. An empty or missing directory yields a
// fresh durable controller. The switch is NOT touched: call Reconcile
// afterwards to drive it back to the recovered intent (a cold restart
// reinstalls everything; a warm one repairs only the drift).
func Recover(dir string, opts Options) (*Controller, error) {
	return RecoverSwitch(dir, nil, opts)
}

// RecoverSwitch is Recover against an existing data plane — the switch
// that survived the controller crash. Pass nil to start from an empty one.
func RecoverSwitch(dir string, v *vswitch.VSwitch, opts Options) (*Controller, error) {
	opts = opts.withDefaults()
	log, rec, err := wal.Open(dir)
	if err != nil {
		return nil, err
	}
	st := newReplayState()
	if rec.Snapshot != nil {
		if err := st.apply(rec.Snapshot); err != nil {
			log.Close()
			return nil, err
		}
	}
	for _, r := range rec.Records {
		if err := st.apply(r); err != nil {
			log.Close()
			return nil, err
		}
	}
	// Whatever begin record is still pending at the end of the journal
	// belongs to a transition that never committed: presumed abort. Its
	// southbound residue, if any, is Reconcile's to repair.
	st.clearPending()

	c := &Controller{
		opts:   opts,
		v:      v,
		sfcs:   st.sfcs,
		placed: st.placed,
		log:    log,
	}
	c.lastInfo = st.info
	if c.v == nil {
		c.v = vswitch.New(pipeline.New(opts.Pipeline))
	}
	if st.provisioned {
		if err := c.rebuildPlanner(st); err != nil {
			log.Close()
			return nil, err
		}
	}
	c.resync()
	return c, nil
}

// rebuildPlanner reconstructs the incremental updater from the recovered
// SFC registry, live-chain stages, and physical layout.
func (c *Controller) rebuildPlanner(st *replayState) error {
	tenants := sortedTenants(c.sfcs)
	list := make([]*vswitch.SFC, 0, len(tenants))
	for _, t := range tenants {
		list = append(list, c.sfcs[t])
	}
	in := c.buildInstance(list)
	a := model.NewAssignment(in)
	for i := range a.X {
		if i >= len(st.layout) {
			break
		}
		for j := range a.X[i] {
			if j < len(st.layout[i]) {
				a.X[i][j] = st.layout[i][j]
			}
		}
	}
	for l, ch := range in.Chains {
		stages, ok := st.live[uint32(ch.ID)]
		if !ok {
			continue
		}
		if len(stages) != len(a.Stages[l]) {
			return fmt.Errorf("core: replay: tenant %d has %d journaled stages, chain has %d NFs",
				ch.ID, len(stages), len(a.Stages[l]))
		}
		copy(a.Stages[l], stages)
	}
	build := model.BuildOptions{Consolidate: c.opts.Consolidate}
	u, err := placement.NewUpdater(in, a, build)
	if err != nil {
		return fmt.Errorf("core: replayed state fails verification: %w", err)
	}
	c.updater = u
	return nil
}

// Provisioned reports whether the controller has a committed initial
// placement (live or recovered).
func (c *Controller) Provisioned() bool { return c.updater != nil }

// Known reports whether the tenant is registered (placed or waiting).
func (c *Controller) Known(tenant uint32) bool {
	_, ok := c.sfcs[tenant]
	return ok
}

// WaitingCount reports how many registered tenants are not currently
// placed in the planner.
func (c *Controller) WaitingCount() int {
	if c.updater == nil {
		return 0
	}
	return c.updater.Waiting()
}

// Close drains any in-flight background snapshot, then flushes and closes
// the journal. The controller must not be used afterwards. A nil-journal
// (non-durable) controller closes trivially.
func (c *Controller) Close() error {
	if c.log == nil {
		return nil
	}
	c.snapWG.Wait()
	err := c.log.Close()
	c.log = nil
	return err
}

// sortedTenants returns the map's keys in ascending order — the canonical
// chain order everywhere the controller serializes tenant sets.
func sortedTenants(m map[uint32]*vswitch.SFC) []uint32 {
	out := make([]uint32, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedKeys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func cloneLayout(x [][]bool) [][]bool {
	if x == nil {
		return nil
	}
	out := make([][]bool, len(x))
	for i := range x {
		out[i] = append([]bool(nil), x[i]...)
	}
	return out
}

// deployedEntries lists the deployed chains' virtual stages, skipping
// tenants present in skip (pass the placed set to get the not-yet-placed
// delta; nil for all deployed chains). Entries come out sorted by tenant.
func deployedEntries(in *model.Instance, a *model.Assignment, skip map[uint32]bool) []liveEntry {
	var out []liveEntry
	for l, ch := range in.Chains {
		t := uint32(ch.ID)
		if !a.Deployed(l) || skip[t] {
			continue
		}
		out = append(out, liveEntry{Tenant: t, Stages: append([]int(nil), a.Stages[l]...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tenant < out[j].Tenant })
	return out
}
