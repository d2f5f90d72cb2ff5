package core

import (
	"fmt"
	"strings"

	"sfp/internal/nf"
)

// StagedNF identifies a physical NF by its stage and type.
type StagedNF struct {
	Stage int
	Type  nf.Type
}

// PartialFailureError reports that a multi-step data-plane operation
// failed partway and the already-applied steps were rolled back, leaving
// the switch as it was before the operation started (grown physical
// tables keep their capacity — spare entries are benign). Callers can
// errors.As for it to learn exactly what was undone.
type PartialFailureError struct {
	// Op is the operation that failed: "provision", "arrive", or
	// "reconfigure".
	Op string
	// Cause is the step error that triggered the rollback.
	Cause error
	// RolledBackTenants lists tenants whose rules were installed by this
	// operation and then removed again.
	RolledBackTenants []uint32
	// RemovedPhysical lists physical NFs this operation installed and
	// then removed again.
	RemovedPhysical []StagedNF
}

// Error implements error.
func (e *PartialFailureError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "core: %s failed, rolled back", e.Op)
	if n := len(e.RolledBackTenants); n > 0 {
		fmt.Fprintf(&b, " %d tenant(s)", n)
	}
	if n := len(e.RemovedPhysical); n > 0 {
		fmt.Fprintf(&b, " %d physical NF(s)", n)
	}
	fmt.Fprintf(&b, ": %v", e.Cause)
	return b.String()
}

// Unwrap exposes the underlying step error.
func (e *PartialFailureError) Unwrap() error { return e.Cause }

// installJournal records the steps an install applied, in order, so a
// failure can undo them in reverse.
type installJournal struct {
	// tenants whose SFC rules were allocated by this install.
	tenants []uint32
	// physical NFs newly created (not pre-existing ones that were grown).
	physical []StagedNF
	// undone lists tenants a lower layer (vswitch.AllocateBatch) installed
	// and already rolled back itself; they are reported as rolled back but
	// need no further Deallocate.
	undone []uint32
	// need is the rule demand the tenants added to the controller's need
	// ledger.
	need needLedger
}

// rollback undoes a journal in reverse order: tenant rules first (so the
// newly created physical tables drain), then the new physical NFs. It is
// best-effort — a step that cannot be undone is skipped — and reports
// what was actually removed. Rolled-back tenants the planner holds live
// become unrealized again.
func (c *Controller) rollback(j *installJournal) (tenants []uint32, removed []StagedNF) {
	for i := len(j.tenants) - 1; i >= 0; i-- {
		t := j.tenants[i]
		if err := c.v.Deallocate(t); err == nil {
			tenants = append(tenants, t)
		}
		delete(c.placed, t)
		if c.updater != nil {
			c.unrealized[t] = true
		}
	}
	for i, n := range j.need.cells {
		c.need.cells[i] -= n
	}
	// Tenants the batch layer already undid: report them (reverse order,
	// matching the undo order) without touching the data plane again.
	for i := len(j.undone) - 1; i >= 0; i-- {
		t := j.undone[i]
		tenants = append(tenants, t)
		delete(c.placed, t)
	}
	for i := len(j.physical) - 1; i >= 0; i-- {
		p := j.physical[i]
		if err := c.v.RemovePhysicalNF(p.Stage, p.Type); err == nil {
			removed = append(removed, p)
		}
	}
	return tenants, removed
}

// partialFailure builds the typed error after rolling back a journal.
func (c *Controller) partialFailure(op string, cause error, j *installJournal) *PartialFailureError {
	tenants, removed := c.rollback(j)
	return &PartialFailureError{Op: op, Cause: cause, RolledBackTenants: tenants, RemovedPhysical: removed}
}
