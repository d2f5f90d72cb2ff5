package core

import (
	"fmt"
	"reflect"
	"sort"

	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/vswitch"
)

// ReconcileReport describes the drift Reconcile found and repaired.
type ReconcileReport struct {
	// OrphansRemoved lists tenants that held switch rules without a
	// committed placement (residue of a crash mid-install).
	OrphansRemoved []uint32
	// Reinstalled lists committed tenants whose rules were missing or
	// drifted and were re-installed.
	Reinstalled []uint32
	// PhysicalInstalled / PhysicalRemoved list the physical NF cells
	// created / deleted to match the intended layout.
	PhysicalInstalled []StagedNF
	PhysicalRemoved   []StagedNF
	// PhysicalGrown counts tables grown to the intended capacity.
	PhysicalGrown int
}

// Clean reports that no drift was found.
func (r *ReconcileReport) Clean() bool {
	return len(r.OrphansRemoved) == 0 && len(r.Reinstalled) == 0 &&
		len(r.PhysicalInstalled) == 0 && len(r.PhysicalRemoved) == 0 &&
		r.PhysicalGrown == 0
}

// Reconcile diffs the live switch state (via the same export the
// MsgDumpState read-back RPC serves) against the controller's committed
// intent and repairs the drift: allocations without a committed placement
// are deallocated, physical NFs outside the intended layout are removed,
// undersized tables are grown, and committed-but-missing allocations are
// re-installed through the all-or-nothing batch path. After a crash this
// is the second half of recovery — Recover rebuilds the intent from the
// journal, Reconcile drives the switch back to it.
func (c *Controller) Reconcile() (*ReconcileReport, error) {
	rep := &ReconcileReport{}

	// The committed intent: placements for every placed tenant, and the
	// physical layout with its rule-capacity needs.
	type intent struct {
		sfc        *vswitch.SFC
		placements []vswitch.Placement
	}
	intended := make(map[uint32]intent)
	var in *model.Instance
	var a *model.Assignment
	if c.updater != nil {
		in, a, _ = c.updater.Current()
		S := in.Switch.Stages
		for l, ch := range in.Chains {
			t := uint32(ch.ID)
			if !a.Deployed(l) || !c.placed[t] {
				continue
			}
			sfc := c.sfcs[t]
			if sfc == nil {
				return rep, fmt.Errorf("core: placed tenant %d has no SFC definition", t)
			}
			placements := make([]vswitch.Placement, len(a.Stages[l]))
			for j, k := range a.Stages[l] {
				placements[j] = vswitch.Placement{
					NFIndex: j,
					Type:    nf.Type(ch.NFs[j].Type),
					Stage:   k % S,
					Pass:    k / S,
				}
			}
			intended[t] = intent{sfc: sfc, placements: placements}
		}
	}

	st := c.v.ExportState()

	// Pass 1: deallocate switch tenants without a committed placement
	// (orphans) or with drifted placements (queued for re-install). This
	// also drains the tables of any to-be-removed physical cells.
	reinstall := make(map[uint32]bool)
	onSwitch := make(map[uint32]bool, len(st.Tenants))
	for _, ts := range st.Tenants {
		t := ts.Spec.Tenant
		onSwitch[t] = true
		want, ok := intended[t]
		if ok && reflect.DeepEqual(ts.Placements, want.placements) {
			continue
		}
		if err := c.v.Deallocate(t); err != nil {
			return rep, fmt.Errorf("core: reconcile: removing tenant %d: %w", t, err)
		}
		if ok {
			reinstall[t] = true
		} else {
			rep.OrphansRemoved = append(rep.OrphansRemoved, t)
		}
	}
	for t := range intended {
		if !onSwitch[t] {
			reinstall[t] = true
		}
	}

	// Pass 2: physical layout. Wanted cells come from the planner's X
	// with the same block-aligned sizing install uses; anything else on
	// the switch is removed (its tables drained by pass 1), missing cells
	// are installed, undersized tables grown. Oversized tables are left
	// alone — install never shrinks either.
	wanted := make(map[[2]int]int)
	if a != nil {
		S := in.Switch.Stages
		E := in.Switch.EntriesPerBlock
		need := ruleNeed(in, a)
		for i := 1; i <= in.NumTypes; i++ {
			for s := 0; s < S; s++ {
				if !a.X[i-1][s] {
					continue
				}
				capacity := need.at(i, s)
				if capacity > 0 {
					capacity = (capacity + E - 1) / E * E
				}
				wanted[[2]int{i, s}] = capacity
			}
		}
	}
	for _, p := range st.Physical {
		if _, ok := wanted[[2]int{int(p.Type), p.Stage}]; ok {
			continue
		}
		if err := c.v.RemovePhysicalNF(p.Stage, p.Type); err != nil {
			return rep, fmt.Errorf("core: reconcile: removing %v@%d: %w", p.Type, p.Stage, err)
		}
		rep.PhysicalRemoved = append(rep.PhysicalRemoved, StagedNF{Stage: p.Stage, Type: p.Type})
	}
	cells := make([][2]int, 0, len(wanted))
	for cell := range wanted {
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i][1] != cells[j][1] {
			return cells[i][1] < cells[j][1]
		}
		return cells[i][0] < cells[j][0]
	})
	for _, cell := range cells {
		typ, stage, capacity := nf.Type(cell[0]), cell[1], wanted[cell]
		if existing := c.v.FindPhysical(stage, typ); existing != nil {
			if capacity > existing.Table.Capacity {
				if err := c.v.Pipe.Stages[stage].GrowTable(existing.Table.Name, capacity); err != nil {
					return rep, fmt.Errorf("core: reconcile: growing %v@%d: %w", typ, stage, err)
				}
				rep.PhysicalGrown++
			}
			continue
		}
		if _, err := c.v.InstallPhysicalNF(stage, typ, capacity); err != nil {
			return rep, fmt.Errorf("core: reconcile: installing %v@%d: %w", typ, stage, err)
		}
		rep.PhysicalInstalled = append(rep.PhysicalInstalled, StagedNF{Stage: stage, Type: typ})
	}

	// Pass 3: re-install committed-but-missing allocations, all at once
	// through the same all-or-nothing batch primitive the southbound
	// MsgBatch path drives.
	if len(reinstall) > 0 {
		tenants := sortedKeys(reinstall)
		items := make([]vswitch.BatchItem, 0, len(tenants))
		for _, t := range tenants {
			items = append(items, vswitch.BatchItem{
				SFC:        intended[t].sfc,
				Placements: intended[t].placements,
			})
		}
		if _, err := c.v.AllocateBatch(items); err != nil {
			return rep, fmt.Errorf("core: reconcile: re-installing: %w", err)
		}
		rep.Reinstalled = tenants
	}

	sort.Slice(rep.OrphansRemoved, func(i, j int) bool { return rep.OrphansRemoved[i] < rep.OrphansRemoved[j] })
	return rep, nil
}
