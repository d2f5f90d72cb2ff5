package core

import (
	"reflect"
	"testing"

	"sfp/internal/faultnet"
	"sfp/internal/p4rt"
	"sfp/internal/vswitch"
)

// scenOp is one step of the convergence scenario. run executes it on a
// healthy controller; redo re-issues it idempotently on a recovered
// controller (skipping work the journal proves committed).
type scenOp struct {
	name string
	run  func(c *Controller) error
	redo func(c *Controller) error
}

// scenario is a deterministic mixed workload: initial provision, batched
// and single arrivals, a departure, and a final converge replan. Every op
// is also expressible as an idempotent re-issue, which is exactly what an
// operator (or supervisor) does after a controller restart.
func scenario() []scenOp {
	prov := smallBatch(1, 4)
	batch1 := arrivalBatch(2, 2, 100)
	batch2 := arrivalBatch(3, 1, 200)
	departT := prov[0].Tenant
	departManyT := []uint32{batch1[0].Tenant, batch1[1].Tenant}

	provision := func(c *Controller) error {
		if c.Provisioned() {
			return nil
		}
		_, err := c.Provision(smallBatch(1, 4))
		return err
	}
	arrive := func(mk func() []*vswitch.SFC) func(*Controller) error {
		return func(c *Controller) error {
			batch := mk()
			if c.Known(batch[0].Tenant) {
				// The registration committed before the crash; a bare
				// replan finishes (or confirms) the placement.
				_, err := c.Replan()
				return err
			}
			_, err := c.ArriveMany(batch)
			return err
		}
	}
	depart := func(c *Controller) error {
		if !c.Known(departT) {
			return nil
		}
		return c.Depart(departT)
	}
	departMany := func(c *Controller) error {
		// Idempotent re-issue: only whatever part of the batch the
		// journal does not already prove departed.
		var left []uint32
		for _, t := range departManyT {
			if c.Known(t) {
				left = append(left, t)
			}
		}
		return c.DepartMany(left)
	}
	replan := func(c *Controller) error {
		_, err := c.Replan()
		return err
	}

	return []scenOp{
		{"provision", provision, provision},
		{"arrive-batch", func(c *Controller) error { _, err := c.ArriveMany(batch1); return err },
			arrive(func() []*vswitch.SFC { return arrivalBatch(2, 2, 100) })},
		{"arrive-single", func(c *Controller) error { _, err := c.ArriveMany(batch2); return err },
			arrive(func() []*vswitch.SFC { return arrivalBatch(3, 1, 200) })},
		{"depart", depart, depart},
		{"departmany", departMany, departMany},
		{"replan", replan, replan},
	}
}

func durableOptions(t *testing.T, kill *faultnet.KillPoints) (Options, string) {
	opts := testOptions(AlgoGreedy)
	if kill != nil {
		opts.Hook = kill.Hook
	}
	return opts, t.TempDir()
}

// controllerFingerprint captures everything the durability layer promises
// to preserve: the registry, the placed set, the live assignment, and the
// physical layout.
func controllerFingerprint(c *Controller) any {
	type fp struct {
		Provisioned bool
		Tenants     []uint32
		Placed      []uint32
		Live        []liveEntry
		Layout      [][]bool
	}
	f := fp{Provisioned: c.Provisioned(), Tenants: sortedTenants(c.sfcs), Placed: sortedKeys(c.placed)}
	if c.updater != nil {
		in, a, _ := c.updater.Current()
		f.Live = deployedEntries(in, a, nil)
		f.Layout = cloneLayout(a.X)
	}
	return f
}

// referenceRun executes the scenario on a durable controller with no
// faults and returns the final controller (journal closed).
func referenceRun(t *testing.T) *Controller {
	t.Helper()
	opts, dir := durableOptions(t, nil)
	c, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range scenario() {
		if err := op.run(c); err != nil {
			t.Fatalf("reference %s: %v", op.name, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRecoverEmptyDir: an empty state directory yields a fresh durable
// controller; reopening it after a clean shutdown restores everything.
func TestRecoverEmptyDir(t *testing.T) {
	opts, dir := durableOptions(t, nil)
	c, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if c.Provisioned() {
		t.Fatal("fresh controller claims provisioned")
	}
	if _, err := c.Provision(smallBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	want := controllerFingerprint(c)
	wantState := c.VSwitch().ExportState()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := controllerFingerprint(r); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered fingerprint differs:\n got %+v\nwant %+v", got, want)
	}
	// Cold restore: fresh switch is empty until Reconcile re-installs.
	rep, err := r.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reinstalled) == 0 {
		t.Fatal("cold reconcile re-installed nothing")
	}
	if !reflect.DeepEqual(r.VSwitch().ExportState(), wantState) {
		t.Fatal("reconciled switch state differs from pre-shutdown state")
	}
	if rep2, err := r.Reconcile(); err != nil || !rep2.Clean() {
		t.Fatalf("second reconcile not clean: %+v, %v", rep2, err)
	}
}

// TestJournalFullScenario: clean-shutdown recovery after the whole mixed
// workload reproduces the controller and (via cold reconcile) the switch.
func TestJournalFullScenario(t *testing.T) {
	ref := referenceRun(t)
	opts, dir := durableOptions(t, nil)
	c, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range scenario() {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got, want := controllerFingerprint(r), controllerFingerprint(ref); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered fingerprint differs:\n got %+v\nwant %+v", got, want)
	}
	if _, err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	// A cold rebuild sizes physical tables to the *current* need, while
	// the reference switch keeps capacity grown for since-departed
	// tenants — so compare the tenant allocations exactly and require the
	// rebuilt state to be a reconcile fixed point, rather than demanding
	// byte-identical physical history.
	if got, want := r.VSwitch().ExportState().Tenants, ref.VSwitch().ExportState().Tenants; !reflect.DeepEqual(got, want) {
		t.Fatalf("reconciled tenant allocations differ:\n got %+v\nwant %+v", got, want)
	}
	if rep, err := r.Reconcile(); err != nil || !rep.Clean() {
		t.Fatalf("drift after cold reconcile: %+v, %v", rep, err)
	}
}

// TestKillRestartConvergence is the crash suite: for every hook index the
// scenario reaches, kill the controller there, recover from the journal
// against the surviving switch, reconcile, re-issue the remaining ops
// idempotently, and require the final switch state to be byte-identical
// to the never-crashed reference — with zero residual drift.
func TestKillRestartConvergence(t *testing.T) {
	ref := referenceRun(t)
	refState := ref.VSwitch().ExportState()
	refFP := controllerFingerprint(ref)

	for n := 0; ; n++ {
		kill := faultnet.KillAt(n)
		opts, dir := durableOptions(t, kill)
		c, err := Recover(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		ops := scenario()
		crashedAt := -1
		for i := 0; i < len(ops) && crashedAt < 0; i++ {
			if crash := faultnet.Crashed(func() {
				if err := ops[i].run(c); err != nil {
					t.Fatalf("kill=%d %s: %v", n, ops[i].name, err)
				}
			}); crash != nil {
				crashedAt = i
			}
		}
		if crashedAt < 0 {
			// The scenario has fewer than n hook points: every crash
			// point has been exercised.
			c.Close()
			if n == 0 {
				t.Fatal("scenario fired no hooks")
			}
			t.Logf("exercised %d crash points", n)
			return
		}

		// The crashed controller is abandoned mid-transition; its switch
		// survives (the data plane does not die with the control plane).
		survivor := c.VSwitch()
		noKill := opts
		noKill.Hook = nil
		r, err := RecoverSwitch(dir, survivor, noKill)
		if err != nil {
			t.Fatalf("kill=%d (%s): recover: %v", n, kill.Killed.Point, err)
		}
		if _, err := r.Reconcile(); err != nil {
			t.Fatalf("kill=%d (%s): reconcile: %v", n, kill.Killed.Point, err)
		}
		if rep, err := r.Reconcile(); err != nil || !rep.Clean() {
			t.Fatalf("kill=%d (%s): drift after reconcile: %+v, %v", n, kill.Killed.Point, rep, err)
		}
		for j := crashedAt; j < len(ops); j++ {
			if err := ops[j].redo(r); err != nil {
				t.Fatalf("kill=%d (%s): redo %s: %v", n, kill.Killed.Point, ops[j].name, err)
			}
		}
		if got := controllerFingerprint(r); !reflect.DeepEqual(got, refFP) {
			t.Fatalf("kill=%d (%s): controller fingerprint diverged:\n got %+v\nwant %+v",
				n, kill.Killed.Point, got, refFP)
		}
		if got := r.VSwitch().ExportState(); !reflect.DeepEqual(got, refState) {
			t.Fatalf("kill=%d (%s): switch state diverged from never-crashed run",
				n, kill.Killed.Point)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDepartCrashMidDeallocate pins the departure-durability fix: a
// controller killed after the switch deallocation but before the commit
// record must, after recover+reconcile, have the tenant's rules back
// (presumed abort), and the re-issued Depart must complete cleanly.
func TestDepartCrashMidDeallocate(t *testing.T) {
	// First find the hook index of "depart:deallocated" for a minimal
	// provision+depart script.
	prov := smallBatch(1, 3)
	departT := prov[0].Tenant

	probe := &pointRecorder{}
	opts, dir := durableOptions(t, nil)
	opts.Hook = probe.record
	c, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Provision(smallBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	if err := c.Depart(departT); err != nil {
		t.Fatal(err)
	}
	c.Close()
	idx := probe.index("depart:deallocated")
	if idx < 0 {
		t.Fatal("scenario never hit depart:deallocated")
	}

	kill := faultnet.KillAt(idx)
	opts2, dir2 := durableOptions(t, kill)
	c2, err := Recover(dir2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Provision(smallBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	before := c2.VSwitch().ExportState()
	crash := faultnet.Crashed(func() {
		if err := c2.Depart(departT); err != nil {
			t.Fatalf("depart: %v", err)
		}
	})
	if crash == nil || crash.Point != "depart:deallocated" {
		t.Fatalf("expected crash at depart:deallocated, got %+v", crash)
	}
	// The rules are gone from the surviving switch but the departure
	// never committed.
	if c2.VSwitch().Allocations(departT) != nil {
		t.Fatal("tenant still allocated after mid-depart crash")
	}

	noKill := opts2
	noKill.Hook = nil
	r, err := RecoverSwitch(dir2, c2.VSwitch(), noKill)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.Known(departT) {
		t.Fatal("uncommitted departure erased the tenant")
	}
	rep, err := r.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reinstalled) != 1 || rep.Reinstalled[0] != departT {
		t.Fatalf("reconcile reinstalled %v, want [%d]", rep.Reinstalled, departT)
	}
	if !reflect.DeepEqual(r.VSwitch().ExportState(), before) {
		t.Fatal("reconcile did not restore the pre-depart switch state")
	}
	// The re-issued departure now runs to completion.
	if err := r.Depart(departT); err != nil {
		t.Fatal(err)
	}
	if r.Known(departT) || r.VSwitch().Allocations(departT) != nil {
		t.Fatal("re-issued depart left residue")
	}
}

// TestDepartWaitingTenant pins the second departure bug: departing a
// registered-but-waiting tenant must also erase it from the planner, not
// just the registry.
func TestDepartWaitingTenant(t *testing.T) {
	c := New(testOptions(AlgoGreedy))
	if _, err := c.Provision(smallBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	// A tenant demanding more bandwidth than the whole switch stays
	// waiting forever.
	big := arrivalBatch(5, 1, 300)
	big[0].BandwidthGbps = c.opts.Pipeline.CapacityGbps * 10
	if placed, err := c.Arrive(big[0]); err != nil {
		t.Fatal(err)
	} else if placed {
		t.Fatal("oversized tenant was placed")
	}
	if c.WaitingCount() != 1 {
		t.Fatalf("waiting = %d, want 1", c.WaitingCount())
	}
	if err := c.Depart(big[0].Tenant); err != nil {
		t.Fatal(err)
	}
	if c.Known(big[0].Tenant) {
		t.Fatal("departed tenant still registered")
	}
	if c.WaitingCount() != 0 {
		t.Fatalf("planner still tracks the departed waiting tenant (waiting=%d)", c.WaitingCount())
	}
}

// pointRecorder captures the hook sequence of a fault-free run.
type pointRecorder struct{ points []string }

func (p *pointRecorder) record(point string) { p.points = append(p.points, point) }

func (p *pointRecorder) index(point string) int {
	for i, q := range p.points {
		if q == point {
			return i
		}
	}
	return -1
}

// TestStateViewEncodesAsStateRec: a snapshot encoded from a captured view
// is byte-identical to the JSON of the equivalent fully converted stateRec
// (the reference capture below), before provisioning and after a scenario.
func TestStateViewEncodesAsStateRec(t *testing.T) {
	reference := func(c *Controller) *stateRec {
		st := &stateRec{Provisioned: c.updater != nil}
		info := c.lastInfo
		st.Info = &info
		for _, t := range sortedTenants(c.sfcs) {
			st.SFCs = append(st.SFCs, p4rt.FromSFC(c.sfcs[t]))
		}
		st.Placed = sortedKeys(c.placed)
		if c.updater != nil {
			in, a, _ := c.updater.Current()
			st.Live = deployedEntries(in, a, nil)
			st.Layout = cloneLayout(a.X)
		}
		return st
	}
	same := func(c *Controller, where string) {
		t.Helper()
		got, err := encodeRec(recSnapshot, c.captureState())
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeRec(recSnapshot, reference(c))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("%s: view encodes as\n%s\nstateRec as\n%s", where, got, want)
		}
	}
	c := New(testOptions(AlgoGreedy))
	same(c, "unprovisioned")
	for _, op := range scenario() {
		if err := op.run(c); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		same(c, op.name)
	}
}
