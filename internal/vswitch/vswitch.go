// Package vswitch implements SFP's data-plane SFC virtualization (§IV of
// the paper): physical NFs are pre-installed on pipeline stages, and logical
// SFCs from tenants are mapped onto them by copying each logical NF's rules
// into the matching physical NF with a tenant-ID + recirculation-pass match
// prefix. When a chain's NF order disagrees with the physical order, the
// chain is "folded": traffic recirculates and the remaining NFs are matched
// on the next pass.
package vswitch

import (
	"fmt"
	"sync/atomic"

	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/packet"
	"sfp/internal/pipeline"
)

// SFC is one tenant's logical service function chain.
type SFC struct {
	// Tenant is the tenant ID carried in packets (e.g. the VLAN ID).
	Tenant uint32
	// NFs are the logical NFs in processing order.
	NFs []*nf.Config
	// BandwidthGbps is T_l, the chain's traffic demand.
	BandwidthGbps float64
}

// Types returns the chain's NF type sequence (f_jl).
func (s *SFC) Types() []nf.Type {
	ts := make([]nf.Type, len(s.NFs))
	for i, c := range s.NFs {
		ts[i] = c.Type
	}
	return ts
}

// PhysicalNF is one pre-installed NF instance on a stage.
type PhysicalNF struct {
	Type  nf.Type
	Stage int
	Table *pipeline.Table
}

// Placement is one logical NF's landing spot.
type Placement struct {
	NFIndex int // j: position in the chain
	Type    nf.Type
	Stage   int // physical stage (0-based)
	Pass    int // recirculation pass (0-based)
}

// Allocation records where a chain landed.
type Allocation struct {
	Tenant     uint32
	Placements []Placement
	// Passes is the number of pipeline traversals the chain needs
	// (R_l + 1 in the model's terms).
	Passes int
	// BandwidthGbps echoes the chain's demand for capacity bookkeeping.
	BandwidthGbps float64
	// Spec is the chain definition this allocation realized, kept so the
	// allocation can be snapshotted and re-installed (batch rollback of a
	// deallocation).
	Spec *SFC
}

// VSwitch is the virtualized data plane: a pipeline plus the physical-NF
// registry and per-tenant allocation state.
type VSwitch struct {
	Pipe *pipeline.Pipeline

	// physical[stage] lists the NFs installed on that stage, in order.
	physical [][]*PhysicalNF
	// byTenant tracks live allocations for deallocation and accounting.
	byTenant map[uint32]*Allocation
	// bandwidth is Σ (R_l+1)·T_l over live allocations, checked against
	// the backplane capacity (Eq. 12). The sum is compensated, like the
	// planner's, so churn does not drift the two apart at the capacity edge.
	bandwidth model.Sum

	// compiled caches the pipeline's compiled form for the packet hot path.
	// Rule churn (tenant allocate/deallocate) keeps a Compiled valid, so
	// only structural changes — installing or removing a physical NF, which
	// add/remove tables and register actions — invalidate it (Store(nil));
	// the next Compiled() call rebuilds lazily.
	compiled atomic.Pointer[pipeline.Compiled]
}

// New wraps a pipeline in a virtual switch.
func New(p *pipeline.Pipeline) *VSwitch {
	return &VSwitch{
		Pipe:     p,
		physical: make([][]*PhysicalNF, p.Cfg.Stages),
		byTenant: make(map[uint32]*Allocation),
	}
}

// physicalTableName names the table hosting a physical NF.
func physicalTableName(stage int, t nf.Type) string {
	return fmt.Sprintf("s%d.%s", stage, t)
}

// InstallPhysicalNF pre-installs an NF of the given type on a stage with the
// given reserved entry capacity. The physical table's key specification is
// the NF's own keys prefixed by exact matches on tenant ID and pass, and its
// default action is "No-Ops" (§IV "Install Physical NFs").
func (v *VSwitch) InstallPhysicalNF(stage int, t nf.Type, capacity int) (*PhysicalNF, error) {
	if stage < 0 || stage >= len(v.physical) {
		return nil, fmt.Errorf("vswitch: stage %d out of range [0,%d)", stage, len(v.physical))
	}
	if v.FindPhysical(stage, t) != nil {
		return nil, fmt.Errorf("vswitch: %v already installed on stage %d", t, stage)
	}
	spec := nf.ForType(t)
	keys := []pipeline.Key{
		{Field: pipeline.FieldTenantID, Kind: pipeline.MatchExact},
		{Field: pipeline.FieldPass, Kind: pipeline.MatchExact},
	}
	// NF-specific exact keys widen to ternary in the physical table: the
	// per-tenant catch-all steering rule (which guarantees recirculation at
	// pass tails even when a packet misses every tenant rule) needs
	// wildcards, and a full-mask ternary match is semantically identical to
	// the exact match (see pipeline's property tests).
	for _, k := range spec.Keys {
		if k.Kind == pipeline.MatchExact {
			k.Kind = pipeline.MatchTernary
		}
		keys = append(keys, k)
	}
	tbl := pipeline.NewTable(physicalTableName(stage, t), keys, capacity)
	for name, fn := range spec.Actions {
		tbl.RegisterAction(name, fn)
	}
	tbl.SetDefault(spec.Default)
	st := v.Pipe.Stages[stage]
	if err := st.AddTable(tbl); err != nil {
		return nil, err
	}
	for name, size := range spec.Registers {
		if err := st.Regs.Alloc(name, size); err != nil {
			// Register arrays are shared per stage by NFs of the same
			// family name; an existing allocation is reused.
			continue
		}
	}
	pnf := &PhysicalNF{Type: t, Stage: stage, Table: tbl}
	v.physical[stage] = append(v.physical[stage], pnf)
	v.compiled.Store(nil) // structural change: drop the compiled cache
	return pnf, nil
}

// RemovePhysicalNF removes an idle physical NF (full-reconfiguration path).
// It refuses if the table still holds tenant rules.
func (v *VSwitch) RemovePhysicalNF(stage int, t nf.Type) error {
	pnf := v.FindPhysical(stage, t)
	if pnf == nil {
		return fmt.Errorf("vswitch: no %v on stage %d", t, stage)
	}
	if pnf.Table.Used() > 0 {
		return fmt.Errorf("vswitch: %v on stage %d still holds %d rules", t, stage, pnf.Table.Used())
	}
	v.Pipe.Stages[stage].RemoveTable(pnf.Table.Name)
	nfs := v.physical[stage]
	for i, p := range nfs {
		if p == pnf {
			v.physical[stage] = append(nfs[:i], nfs[i+1:]...)
			break
		}
	}
	v.compiled.Store(nil) // structural change: drop the compiled cache
	return nil
}

// FindPhysical returns the physical NF of type t on the stage, or nil.
func (v *VSwitch) FindPhysical(stage int, t nf.Type) *PhysicalNF {
	if stage < 0 || stage >= len(v.physical) {
		return nil
	}
	for _, p := range v.physical[stage] {
		if p.Type == t {
			return p
		}
	}
	return nil
}

// Layout returns, per stage, the installed NF types (for the folding
// algorithm and for reporting).
func (v *VSwitch) Layout() [][]nf.Type {
	out := make([][]nf.Type, len(v.physical))
	for s, nfs := range v.physical {
		for _, p := range nfs {
			out[s] = append(out[s], p.Type)
		}
	}
	return out
}

// BandwidthUsed returns Σ (R_l+1)·T_l over live allocations.
func (v *VSwitch) BandwidthUsed() float64 { return max(v.bandwidth.Value(), 0) }

// Allocations returns the live allocation for a tenant (nil if none).
func (v *VSwitch) Allocations(tenant uint32) *Allocation { return v.byTenant[tenant] }

// Tenants returns the number of tenants with live allocations.
func (v *VSwitch) Tenants() int { return len(v.byTenant) }

// Allocate maps the SFC onto the physical pipeline using the first-fit
// folding algorithm of §IV: scan stages for a physical NF of the next
// logical NF's type; when the current pass cannot host the next NF, set REC
// on the previous NF's rules, advance currPass, and continue from stage 0.
// On success the tenant's rules are installed; on any failure the switch is
// left unchanged.
func (v *VSwitch) Allocate(sfc *SFC) (*Allocation, error) {
	placements, err := Fold(v.Layout(), sfc.Types(), v.Pipe.Cfg.MaxPasses)
	if err != nil {
		return nil, fmt.Errorf("vswitch: tenant %d: %w", sfc.Tenant, err)
	}
	return v.AllocateAt(sfc, placements)
}

// AllocateAt installs the SFC at explicit placements (as computed by the
// control plane's optimizer or by Fold). Placements must be one per logical
// NF, in chain order, with strictly increasing virtual stage indices.
func (v *VSwitch) AllocateAt(sfc *SFC, placements []Placement) (*Allocation, error) {
	return v.allocateOne(sfc, placements, nil)
}

// BatchItem pairs one chain with its placements for AllocateBatch.
type BatchItem struct {
	SFC        *SFC
	Placements []Placement
}

// BatchError reports an AllocateBatch failure: which item failed, and
// which earlier items had already been installed and were rolled back
// again (in install order) to restore the pre-batch state.
type BatchError struct {
	// Index is the position of the failing item.
	Index int
	// Tenant is the failing item's tenant.
	Tenant uint32
	// Applied lists tenants installed by this batch before the failure and
	// deallocated again during rollback.
	Applied []uint32
	// Cause is the failing item's install error.
	Cause error
}

// Error implements error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("vswitch: batch item %d (tenant %d): %v (rolled back %d earlier tenant(s))",
		e.Index, e.Tenant, e.Cause, len(e.Applied))
}

// Unwrap exposes the failing item's error.
func (e *BatchError) Unwrap() error { return e.Cause }

// AllocateBatch realizes many tenants' placements in one pass over the
// pipeline: items install in order against a shared physical-NF
// resolution cache, and admission (bandwidth, capacity, validation) is
// checked per item exactly as sequential AllocateAt calls would, so the
// batch succeeds if and only if the same sequence of AllocateAt calls
// would. It is all-or-nothing: the first failure deallocates the items
// already installed and returns a *BatchError naming them, leaving the
// switch exactly as before the call.
func (v *VSwitch) AllocateBatch(items []BatchItem) ([]*Allocation, error) {
	seen := make(map[uint32]int, len(items))
	for i, it := range items {
		if j, dup := seen[it.SFC.Tenant]; dup {
			return nil, fmt.Errorf("vswitch: batch items %d and %d both allocate tenant %d", j, i, it.SFC.Tenant)
		}
		seen[it.SFC.Tenant] = i
	}
	cache := make(map[[2]int]*PhysicalNF)
	allocs := make([]*Allocation, 0, len(items))
	for i, it := range items {
		a, err := v.allocateOne(it.SFC, it.Placements, cache)
		if err != nil {
			applied := make([]uint32, len(allocs))
			for k := len(allocs) - 1; k >= 0; k-- {
				applied[k] = allocs[k].Tenant
				v.Deallocate(allocs[k].Tenant)
			}
			return nil, &BatchError{Index: i, Tenant: it.SFC.Tenant, Applied: applied, Cause: err}
		}
		allocs = append(allocs, a)
	}
	return allocs, nil
}

// findPhysicalCached resolves (stage, type) through the batch-shared cache.
func (v *VSwitch) findPhysicalCached(stage int, t nf.Type, cache map[[2]int]*PhysicalNF) *PhysicalNF {
	if cache == nil {
		return v.FindPhysical(stage, t)
	}
	key := [2]int{stage, int(t)}
	if p, ok := cache[key]; ok {
		return p
	}
	p := v.FindPhysical(stage, t)
	if p != nil {
		cache[key] = p
	}
	return p
}

// allocateOne is the install path shared by AllocateAt and AllocateBatch;
// cache, when non-nil, memoizes physical-NF resolution across a batch.
func (v *VSwitch) allocateOne(sfc *SFC, placements []Placement, cache map[[2]int]*PhysicalNF) (*Allocation, error) {
	if _, live := v.byTenant[sfc.Tenant]; live {
		return nil, fmt.Errorf("vswitch: tenant %d already allocated", sfc.Tenant)
	}
	if len(placements) != len(sfc.NFs) {
		return nil, fmt.Errorf("vswitch: %d placements for %d NFs", len(placements), len(sfc.NFs))
	}
	S := v.Pipe.Cfg.Stages
	passes := 0
	prevVirtual := -1
	for i, pl := range placements {
		if pl.Type != sfc.NFs[i].Type {
			return nil, fmt.Errorf("vswitch: placement %d type %v != chain type %v", i, pl.Type, sfc.NFs[i].Type)
		}
		virtual := pl.Pass*S + pl.Stage
		if virtual <= prevVirtual {
			return nil, fmt.Errorf("vswitch: placements not strictly increasing at NF %d", i)
		}
		prevVirtual = virtual
		if pl.Pass+1 > passes {
			passes = pl.Pass + 1
		}
	}
	if passes > v.Pipe.Cfg.MaxPasses {
		return nil, fmt.Errorf("vswitch: needs %d passes, max %d", passes, v.Pipe.Cfg.MaxPasses)
	}
	if v.BandwidthUsed()+float64(passes)*sfc.BandwidthGbps > v.Pipe.Cfg.CapacityGbps {
		return nil, fmt.Errorf("vswitch: backplane capacity exceeded: %.1f + %d×%.1f > %.1f Gbps",
			v.BandwidthUsed(), passes, sfc.BandwidthGbps, v.Pipe.Cfg.CapacityGbps)
	}

	// The last NF of every pass except the final one carries the REC
	// argument in its installed rules.
	recAt := make(map[int]bool) // NF index -> set REC
	hasTail := make(map[int]bool)
	for i := 0; i < len(placements)-1; i++ {
		if placements[i+1].Pass > placements[i].Pass {
			recAt[i] = true
			hasTail[placements[i].Pass] = true
		}
	}
	// Passes with no NF at all (the optimizer may start a chain on a later
	// pass or jump a pass under memory pressure) still need the tenant's
	// traffic steered onward: a catch-all REC rule per empty pass, hosted
	// in the chain's first physical NF table.
	var emptyPasses []int
	for p := 0; p < passes-1; p++ {
		if !hasTail[p] {
			emptyPasses = append(emptyPasses, p)
		}
	}

	// Install rules; roll back on failure.
	installed := make([]*pipeline.Table, 0, len(placements))
	rollback := func() {
		for _, t := range installed {
			t.DeleteTenant(sfc.Tenant)
		}
	}
	for i, pl := range placements {
		pnf := v.findPhysicalCached(pl.Stage, pl.Type, cache)
		if pnf == nil {
			rollback()
			return nil, fmt.Errorf("vswitch: no physical %v on stage %d", pl.Type, pl.Stage)
		}
		cfg := sfc.NFs[i]
		if err := cfg.Validate(); err != nil {
			rollback()
			return nil, err
		}
		installed = append(installed, pnf.Table)
		for _, cr := range cfg.Rules {
			rule := &pipeline.Rule{
				Priority: cr.Priority,
				Matches: append([]pipeline.Match{
					pipeline.Eq(uint64(sfc.Tenant)),
					pipeline.Eq(uint64(pl.Pass)),
				}, cr.Matches...),
				Action: cr.Action,
				Params: cr.Params,
				Rec:    recAt[i],
				Tenant: sfc.Tenant,
			}
			if err := pnf.Table.Insert(rule); err != nil {
				rollback()
				return nil, fmt.Errorf("vswitch: tenant %d NF %d (%v): %w", sfc.Tenant, i, pl.Type, err)
			}
		}
		if recAt[i] {
			// Per-tenant catch-all at the pass tail: whatever this NF does
			// (or skips) for the packet, the chain's remaining NFs live in
			// the next pass, so the packet must recirculate.
			if err := pnf.Table.Insert(catchAllRule(sfc.Tenant, pl)); err != nil {
				rollback()
				return nil, fmt.Errorf("vswitch: tenant %d REC catch-all on NF %d (%v): %w", sfc.Tenant, i, pl.Type, err)
			}
		}
	}

	for _, p := range emptyPasses {
		pnf := v.findPhysicalCached(placements[0].Stage, placements[0].Type, cache)
		if pnf == nil {
			rollback()
			return nil, fmt.Errorf("vswitch: no physical %v on stage %d for pass-%d steering",
				placements[0].Type, placements[0].Stage, p)
		}
		steer := catchAllRule(sfc.Tenant, Placement{Type: placements[0].Type, Stage: placements[0].Stage, Pass: p})
		if err := pnf.Table.Insert(steer); err != nil {
			rollback()
			return nil, fmt.Errorf("vswitch: tenant %d pass-%d steering: %w", sfc.Tenant, p, err)
		}
	}

	alloc := &Allocation{
		Tenant:        sfc.Tenant,
		Placements:    placements,
		Passes:        passes,
		BandwidthGbps: sfc.BandwidthGbps,
		Spec:          sfc,
	}
	v.byTenant[sfc.Tenant] = alloc
	v.bandwidth.Add(float64(passes) * sfc.BandwidthGbps)
	return alloc, nil
}

// catchAllRule builds the lowest-priority tenant steering rule installed at
// the tail NF of each non-final pass: match (tenant, pass, anything), run
// the NF's default no-op, and set REC.
func catchAllRule(tenant uint32, pl Placement) *pipeline.Rule {
	spec := nf.ForType(pl.Type)
	matches := []pipeline.Match{
		pipeline.Eq(uint64(tenant)),
		pipeline.Eq(uint64(pl.Pass)),
	}
	for _, k := range spec.Keys {
		switch k.Kind {
		case pipeline.MatchRange:
			matches = append(matches, pipeline.Between(0, ^uint64(0)))
		case pipeline.MatchLPM:
			matches = append(matches, pipeline.Prefix(0, 0))
		default: // exact (widened to ternary) and ternary
			matches = append(matches, pipeline.Wildcard())
		}
	}
	return &pipeline.Rule{
		Priority: -1 << 30,
		Matches:  matches,
		Action:   spec.Default,
		Rec:      true,
		Tenant:   tenant,
	}
}

// Deallocate removes a tenant's rules from every table and releases its
// backplane bandwidth (§IV "(De)allocate Logical NFs", §V-E departures).
func (v *VSwitch) Deallocate(tenant uint32) error {
	alloc, ok := v.byTenant[tenant]
	if !ok {
		return fmt.Errorf("vswitch: tenant %d has no allocation", tenant)
	}
	for _, stage := range v.Pipe.Stages {
		for _, t := range stage.Tables {
			t.DeleteTenant(tenant)
		}
	}
	v.bandwidth.Add(-float64(alloc.Passes) * alloc.BandwidthGbps)
	delete(v.byTenant, tenant)
	return nil
}

// DeallocateBatch removes a batch of tenants in one pass over every table,
// so a batch of N departures costs one rules scan per table instead of N.
// The batch is all-or-nothing: every tenant is validated (allocated, no
// duplicates) before any rule is touched, so an error leaves the switch
// unchanged.
func (v *VSwitch) DeallocateBatch(tenants []uint32) error {
	if len(tenants) == 0 {
		return nil
	}
	set := make(map[uint32]bool, len(tenants))
	for _, tn := range tenants {
		if _, ok := v.byTenant[tn]; !ok {
			return fmt.Errorf("vswitch: tenant %d has no allocation", tn)
		}
		if set[tn] {
			return fmt.Errorf("vswitch: tenant %d duplicated in batch", tn)
		}
		set[tn] = true
	}
	for _, stage := range v.Pipe.Stages {
		for _, t := range stage.Tables {
			t.DeleteTenants(set)
		}
	}
	for _, tn := range tenants {
		alloc := v.byTenant[tn]
		v.bandwidth.Add(-float64(alloc.Passes) * alloc.BandwidthGbps)
		delete(v.byTenant, tn)
	}
	return nil
}

// Compiled returns the pipeline's compiled fast path, building and caching
// it on first use. The cache survives rule churn (allocate/deallocate) and
// is invalidated by physical-NF install/remove. Safe for concurrent use;
// concurrent first calls may compile twice, both results are valid.
func (v *VSwitch) Compiled() *pipeline.Compiled {
	if c := v.compiled.Load(); c != nil {
		return c
	}
	c := v.Pipe.Compile()
	v.compiled.Store(c)
	return c
}

// Process pushes one packet through the data plane via the compiled fast
// path (bit-identical to the interpreter, see pipeline's property tests).
func (v *VSwitch) Process(p *packet.Packet, nowNs float64) pipeline.Result {
	return v.Compiled().Process(p, nowNs)
}
