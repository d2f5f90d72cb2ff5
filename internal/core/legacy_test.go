package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sfp/internal/p4rt"
	"sfp/internal/wal"
)

// legacyDir holds a journal written by a controller that encoded every
// record as a kind byte plus JSON: a snapshot generation with a full
// registry, then every record kind (provision, reconfigure, place and
// batch-departure begin/commit/abort, a partial batch-departure commit,
// and hand-written single-tenant depart records ending in a dangling
// begin).
const legacyDir = "testdata/legacy-json"

// copyLegacyJournal copies the legacy journal to a scratch directory:
// recovery opens the journal for appending, and the testdata must not move.
func copyLegacyJournal(t testing.TB) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(legacyDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(legacyDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// legacyRecords returns the legacy journal's snapshot followed by its
// records.
func legacyRecords(t testing.TB) [][]byte {
	t.Helper()
	log, rec, err := wal.Open(copyLegacyJournal(t))
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	return append([][]byte{rec.Snapshot}, rec.Records...)
}

// switchDigest hashes the switch's exported configuration: every physical
// NF and every tenant allocation with its full rule set.
func switchDigest(t *testing.T, c *Controller) string {
	t.Helper()
	b, err := json.Marshal(p4rt.FromState(c.VSwitch().ExportState()))
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// TestRecoverLegacyGolden: a journal of JSON records still recovers, and
// reconciling it into a cold switch gives the state the JSON-writing
// controller recovered from the same directory.
func TestRecoverLegacyGolden(t *testing.T) {
	seen := map[byte]bool{}
	for _, r := range legacyRecords(t) {
		if r[0]&recBinary != 0 {
			t.Fatalf("legacy journal holds a binary record (kind byte %#x)", r[0])
		}
		seen[r[0]] = true
	}
	for k := recSnapshot; k <= recDepartManyAbort; k++ {
		if !seen[k] {
			t.Errorf("legacy journal lacks record kind %d", k)
		}
	}

	// The snapshot alone: later commits re-derive the placed set, so its
	// own fields are pinned here.
	snap := newReplayState()
	if err := snap.apply(legacyRecords(t)[0]); err != nil {
		t.Fatal(err)
	}
	fleet := []uint32{1, 2, 3, 4, 101, 102}
	if got := sortedKeys(snap.placed); !reflect.DeepEqual(got, fleet) {
		t.Fatalf("snapshot placed %v, want %v", got, fleet)
	}
	if got := sortedTenants(snap.sfcs); !reflect.DeepEqual(got, fleet) {
		t.Fatalf("snapshot registry %v, want %v", got, fleet)
	}
	wantLive := map[uint32][]int{1: {0, 1}, 2: {0}, 3: {0, 1, 2, 3, 4}, 4: {0, 1, 2, 3}, 101: {0, 1}, 102: {0}}
	if !reflect.DeepEqual(snap.live, wantLive) {
		t.Fatalf("snapshot live %v, want %v", snap.live, wantLive)
	}
	const T, F = true, false
	wantLayout := [][]bool{{F, F, T, F}, {T, T, T, T}, {T, F, F, F}, {T, F, F, F}, {T, T, F, F},
		{T, F, F, F}, {T, F, F, F}, {T, T, F, T}, {F, T, F, F}, {T, F, F, F}}
	if !reflect.DeepEqual(snap.layout, wantLayout) {
		t.Fatalf("snapshot layout %v, want %v", snap.layout, wantLayout)
	}
	if in := snap.info; !snap.provisioned || in.Requested != AlgoGreedy || in.Used != AlgoGreedy ||
		in.FellBack || in.SolverStatus != "greedy" || len(in.Attempts) != 0 {
		t.Fatalf("snapshot provisioned=%v info %+v", snap.provisioned, in)
	}

	checkLegacyRecovery(t, copyLegacyJournal(t))
}

// TestLegacyJournalReencodes: the legacy journal rewritten record by record
// in the binary format recovers to the same registry, placed set and
// switch.
func TestLegacyJournalReencodes(t *testing.T) {
	recs := legacyRecords(t)
	dir := t.TempDir()
	log, _, err := wal.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		kind, p, err := decodeRec(r)
		if err != nil {
			t.Fatalf("legacy record %d: %v", i, err)
		}
		b, err := encodeRec(kind, p)
		if err != nil {
			t.Fatalf("re-encoding legacy record %d (kind %d): %v", i, kind, err)
		}
		if i == 0 {
			err = log.Rotate(b)
		} else {
			err = log.AppendCommit(b)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	checkLegacyRecovery(t, dir)
}

// checkLegacyRecovery recovers dir, reconciles it into a cold switch and
// compares the result with what the JSON-writing controller recovered from
// the legacy journal.
func checkLegacyRecovery(t *testing.T, dir string) {
	t.Helper()
	c, err := Recover(dir, testOptions(AlgoGreedy))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.Provisioned() {
		t.Fatal("legacy journal recovered unprovisioned")
	}
	if got, want := sortedTenants(c.sfcs), []uint32{3, 101, 102, 201}; !reflect.DeepEqual(got, want) {
		t.Fatalf("registry %v, want %v", got, want)
	}
	if _, err := c.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if rep, err := c.Reconcile(); err != nil || !rep.Clean() {
		t.Fatalf("drift after reconcile: %+v, %v", rep, err)
	}
	if got, want := sortedKeys(c.placed), []uint32{3, 101, 102, 201}; !reflect.DeepEqual(got, want) {
		t.Fatalf("placed %v, want %v", got, want)
	}
	if got, want := switchDigest(t, c), "107dd49e6c610c40"; got != want {
		t.Fatalf("switch digest %s, want %s", got, want)
	}
}
