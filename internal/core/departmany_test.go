package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sfp/internal/faultnet"
)

// TestDepartManyMatchesSequential: one DepartMany call must leave the
// controller and the switch in exactly the state a sequential Depart loop
// (N one-entry batches) over the same tenants produces.
func TestDepartManyMatchesSequential(t *testing.T) {
	build := func() *Controller {
		c := New(testOptions(AlgoGreedy))
		if _, err := c.Provision(smallBatch(1, 4)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.ArriveMany(arrivalBatch(2, 6, 100)); err != nil {
			t.Fatal(err)
		}
		return c
	}
	victims := []uint32{101, 103, 105, 2}

	seq := build()
	for _, tn := range victims {
		if err := seq.Depart(tn); err != nil {
			t.Fatalf("sequential depart %d: %v", tn, err)
		}
	}

	batch := build()
	if err := batch.DepartMany(victims); err != nil {
		t.Fatalf("DepartMany: %v", err)
	}

	if got, want := controllerFingerprint(batch), controllerFingerprint(seq); !reflect.DeepEqual(got, want) {
		t.Fatalf("controller fingerprints diverge:\n batch %+v\n  seq  %+v", got, want)
	}
	if got, want := batch.VSwitch().ExportState(), seq.VSwitch().ExportState(); !reflect.DeepEqual(got, want) {
		t.Fatal("switch states diverge between DepartMany and sequential Depart")
	}
}

// TestDepartManyValidation: the batch is validated before any journal or
// switch effect — an unknown or duplicated tenant rejects the whole call.
func TestDepartManyValidation(t *testing.T) {
	c := New(testOptions(AlgoGreedy))
	if _, err := c.Provision(smallBatch(1, 3)); err != nil {
		t.Fatal(err)
	}
	before := c.VSwitch().ExportState()
	if err := c.DepartMany([]uint32{1, 999}); err == nil {
		t.Fatal("unknown tenant accepted")
	}
	if err := c.DepartMany([]uint32{1, 2, 1}); err == nil {
		t.Fatal("duplicate tenant accepted")
	}
	if !reflect.DeepEqual(c.VSwitch().ExportState(), before) {
		t.Fatal("rejected batch mutated the switch")
	}
	if !c.Known(1) || !c.Known(2) {
		t.Fatal("rejected batch mutated the registry")
	}
	if err := c.DepartMany(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestReplayDepartManyPartialCommit: a departmany commit carrying an
// abortRec payload removes only the listed prefix — the planner refused
// partway and the suffix was restored in place.
func TestReplayDepartManyPartialCommit(t *testing.T) {
	st := newReplayState()
	mustApply := func(kind byte, payload any) {
		t.Helper()
		rec, err := encodeRec(kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		if rec[0]&recBinary == 0 {
			t.Fatalf("kind %d encoded as a legacy record", kind)
		}
		if err := st.apply(rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, sfc := range smallBatch(1, 3) {
		st.sfcs[sfc.Tenant] = sfc
		st.placed[sfc.Tenant] = true
		st.live[sfc.Tenant] = []int{0}
	}

	begin := &departManyRec{Entries: []departRec{
		{Tenant: 1, Placed: true}, {Tenant: 2, Placed: true}, {Tenant: 3, Placed: true},
	}}
	mustApply(recDepartManyBegin, begin)
	mustApply(recDepartManyCommit, &abortRec{Tenants: []uint32{1}})
	if _, ok := st.sfcs[1]; ok {
		t.Fatal("partial commit kept the departed prefix")
	}
	for _, tn := range []uint32{2, 3} {
		if _, ok := st.sfcs[tn]; !ok || !st.placed[tn] {
			t.Fatalf("partial commit erased restored tenant %d", tn)
		}
	}

	// A bare commit after a fresh begin removes the remaining batch whole.
	mustApply(recDepartManyBegin, &departManyRec{Entries: []departRec{
		{Tenant: 2, Placed: true}, {Tenant: 3, Placed: true},
	}})
	mustApply(recDepartManyCommit, nil)
	if len(st.sfcs) != 0 || len(st.placed) != 0 {
		t.Fatalf("bare commit left residue: sfcs=%d placed=%d", len(st.sfcs), len(st.placed))
	}

	// A dangling begin (presumed abort) removes nothing.
	st2 := newReplayState()
	st2.sfcs[7] = smallBatch(1, 1)[0]
	rec, _ := encodeRec(recDepartManyBegin, begin)
	if err := st2.apply(rec); err != nil {
		t.Fatal(err)
	}
	st2.clearPending()
	if _, ok := st2.sfcs[7]; !ok {
		t.Fatal("presumed abort erased a tenant")
	}
}

// TestCrashMidGroupCommitTornTail is the group-commit crash test: the
// controller dies at "journal:staged" — the departmany begin record
// appended but not yet durable — and the crash additionally tears the
// journal tail (a half-written frame reached the disk before the fsync
// could complete). Recovery must discard the torn tail, presume the
// un-committed departure aborted, reconcile the surviving switch, and
// converge to the byte-identical never-crashed state.
func TestCrashMidGroupCommitTornTail(t *testing.T) {
	ref := referenceRun(t)
	refState := ref.VSwitch().ExportState()
	refFP := controllerFingerprint(ref)

	// Locate the hook index of the journal:staged that precedes the
	// departmany journaled hook inside the departmany op in a fault-free
	// run (the depart op before it is a one-tenant departmany too).
	probe := &pointRecorder{}
	opts, dir := durableOptions(t, nil)
	opts.Hook = probe.record
	c0, err := Recover(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	from := -1
	for _, op := range scenario() {
		if op.name == "departmany" {
			from = len(probe.points)
		}
		if err := op.run(c0); err != nil {
			t.Fatalf("probe %s: %v", op.name, err)
		}
	}
	c0.Close()
	idx := -1
	for i := from; from >= 0 && i < len(probe.points); i++ {
		if probe.points[i] == "journal:staged" && i+1 < len(probe.points) && probe.points[i+1] == "departmany:journaled" {
			idx = i
			break
		}
	}
	if idx < 0 {
		t.Fatal("no journal:staged hook precedes departmany:journaled")
	}

	kill := faultnet.KillAt(idx)
	opts2, dir2 := durableOptions(t, kill)
	c, err := Recover(dir2, opts2)
	if err != nil {
		t.Fatal(err)
	}
	ops := scenario()
	crashedAt := -1
	for i := 0; i < len(ops) && crashedAt < 0; i++ {
		if crash := faultnet.Crashed(func() {
			if err := ops[i].run(c); err != nil {
				t.Fatalf("%s: %v", ops[i].name, err)
			}
		}); crash != nil {
			if crash.Point != "journal:staged" {
				t.Fatalf("crashed at %q, want journal:staged", crash.Point)
			}
			crashedAt = i
		}
	}
	if crashedAt < 0 {
		t.Fatal("kill point never fired")
	}
	if ops[crashedAt].name != "departmany" {
		t.Fatalf("crashed inside %q, want departmany", ops[crashedAt].name)
	}

	// Tear the tail: a frame header claiming 64 bytes followed by only a
	// fragment of the body — the shape a power cut mid-group-write leaves.
	wals, err := filepath.Glob(filepath.Join(dir2, "wal-*"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("no wal file to tear: %v (%d found)", err, len(wals))
	}
	walPath := wals[len(wals)-1]
	f, err := os.OpenFile(walPath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0, 0, 0, 64, 0xde, 0xad, 0xbe, 0xef, 'p', 'a', 'r', 't', 'i', 'a', 'l'}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()
	preRecover, err := os.Stat(walPath)
	if err != nil {
		t.Fatal(err)
	}

	noKill := opts2
	noKill.Hook = nil
	r, err := RecoverSwitch(dir2, c.VSwitch(), noKill)
	if err != nil {
		t.Fatalf("recover over torn tail: %v", err)
	}
	// Replay must have truncated the torn frame off the journal file.
	if post, err := os.Stat(walPath); err == nil && post.Size() >= preRecover.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", preRecover.Size(), post.Size())
	}
	// The staged-but-unsynced departmany begin never became durable:
	// presumed abort keeps every batch tenant registered.
	if _, err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if rep, err := r.Reconcile(); err != nil || !rep.Clean() {
		t.Fatalf("drift after reconcile: %+v, %v", rep, err)
	}
	for j := crashedAt; j < len(ops); j++ {
		if err := ops[j].redo(r); err != nil {
			t.Fatalf("redo %s: %v", ops[j].name, err)
		}
	}
	if got := controllerFingerprint(r); !reflect.DeepEqual(got, refFP) {
		t.Fatalf("controller fingerprint diverged:\n got %+v\nwant %+v", got, refFP)
	}
	if got := r.VSwitch().ExportState(); !reflect.DeepEqual(got, refState) {
		t.Fatal("switch state diverged from never-crashed run")
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestOffLockSnapshotRotation: with an aggressive snapshot threshold the
// background rotation must run (generation advances) without losing any
// record committed while the snapshot was serializing, and recovery from
// the rotated journal must match the reference run exactly.
func TestOffLockSnapshotRotation(t *testing.T) {
	ref := referenceRun(t)

	// Sweep the rotation cadence so the snapshot threshold lands on every
	// alignment relative to the scenario's begin/commit pairs: a rotation
	// whose trigger coincided with a BEGIN record used to snapshot the
	// pre-transaction state and strand the matching commit in the carried
	// tail (replayed dangling, transaction lost).
	for every := 1; every <= 6; every++ {
		opts, dir := durableOptions(t, nil)
		opts.SnapshotEvery = every
		c, err := Recover(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range scenario() {
			if err := op.run(c); err != nil {
				t.Fatalf("every=%d %s: %v", every, op.name, err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := Recover(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if gen := r.log.Gen(); gen == 0 {
			t.Fatalf("every=%d: snapshot rotation never advanced the journal generation", every)
		}
		if got, want := controllerFingerprint(r), controllerFingerprint(ref); !reflect.DeepEqual(got, want) {
			t.Fatalf("every=%d: recovered fingerprint differs:\n got %+v\nwant %+v", every, got, want)
		}
		if _, err := r.Reconcile(); err != nil {
			t.Fatal(err)
		}
		if got, want := r.VSwitch().ExportState().Tenants, ref.VSwitch().ExportState().Tenants; !reflect.DeepEqual(got, want) {
			t.Fatalf("every=%d: reconciled tenant allocations differ from reference", every)
		}
		r.Close()
	}
}

// TestDepartManyRecRoundTrip: the departmany begin record and its partial
// commit decode back to what was encoded, as binary records of their own
// kinds.
func TestDepartManyRecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		kind    byte
		payload any
	}{
		{recDepartManyBegin, &departManyRec{Entries: []departRec{{Tenant: 9, Placed: true}, {Tenant: 10}}}},
		{recDepartManyCommit, &abortRec{Tenants: []uint32{9}}},
	} {
		b, err := encodeRec(tc.kind, tc.payload)
		if err != nil {
			t.Fatal(err)
		}
		if b[0] != recBinary|tc.kind {
			t.Fatalf("kind byte %#x, want binary kind %d", b[0], tc.kind)
		}
		kind, out, err := decodeRec(b)
		if err != nil {
			t.Fatal(err)
		}
		if kind != tc.kind || !reflect.DeepEqual(out, tc.payload) {
			t.Fatalf("round trip: kind %d %+v != kind %d %+v", kind, out, tc.kind, tc.payload)
		}
	}
}
