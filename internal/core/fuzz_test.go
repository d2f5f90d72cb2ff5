package core

import (
	"bytes"
	"testing"
)

// replaySeeds returns one record of every kind in both formats: the legacy
// journal's JSON records (which cover every kind) and each of them
// re-encoded as a binary record.
func replaySeeds(t testing.TB) (legacy, binary [][]byte) {
	t.Helper()
	legacy = legacyRecords(t)
	for i, r := range legacy {
		kind, p, err := decodeRec(r)
		if err != nil {
			t.Fatalf("legacy record %d: %v", i, err)
		}
		b, err := encodeRec(kind, p)
		if err != nil {
			t.Fatalf("legacy record %d: %v", i, err)
		}
		binary = append(binary, b)
	}
	return legacy, binary
}

// replayPrefixes are the states a fuzzed record is applied to: empty, a
// small snapshot, and the snapshot with each kind of begin record pending,
// so the commit and abort cases have a transaction to act on.
func replayPrefixes(t testing.TB) [][][]byte {
	t.Helper()
	sfcs := smallBatch(1, 2)
	st := &stateRec{
		Provisioned: true,
		SFCs:        sfcs,
		Live:        []liveEntry{{Tenant: sfcs[0].Tenant, Stages: make([]int, len(sfcs[0].NFs))}},
		Placed:      []uint32{sfcs[0].Tenant},
		Layout:      [][]bool{{true, false}, {false, true}},
		Info:        &ProvisionInfo{},
	}
	rec := func(kind byte, payload any) []byte {
		b, err := encodeRec(kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	snap := rec(recSnapshot, st)
	out := [][][]byte{nil, {snap}}
	for _, r := range [][]byte{
		rec(recProvisionBegin, st),
		rec(recReconfigBegin, st),
		rec(recPlaceBegin, &placeRec{Live: st.Live, Layout: st.Layout}),
		rec(recDepartBegin, &departRec{Tenant: sfcs[0].Tenant, Placed: true}),
		rec(recDepartManyBegin, &departManyRec{Entries: []departRec{{Tenant: sfcs[1].Tenant}}}),
	} {
		out = append(out, [][]byte{snap, r})
	}
	return out
}

// FuzzReplayRecord: replaying arbitrary bytes never panics, whatever
// transaction is pending; a record replay rejects is one decodeRec
// rejects; and a binary record the decoder accepts re-encodes to exactly
// its own bytes.
func FuzzReplayRecord(f *testing.F) {
	legacy, bin := replaySeeds(f)
	for _, r := range append(legacy, bin...) {
		f.Add(r)
	}
	prefixes := replayPrefixes(f)
	f.Fuzz(func(t *testing.T, rec []byte) {
		kind, p, decErr := decodeRec(rec)
		for _, prefix := range prefixes {
			st := newReplayState()
			for _, r := range prefix {
				if err := st.apply(r); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.apply(rec); (err == nil) != (decErr == nil) {
				t.Fatalf("apply error %v, decode error %v", err, decErr)
			}
		}
		if decErr != nil || rec[0]&recBinary == 0 {
			return
		}
		again, err := encodeRec(kind, p)
		if err != nil {
			t.Fatalf("re-encoding kind %d: %v", kind, err)
		}
		if !bytes.Equal(again, rec) {
			t.Fatalf("kind %d re-encodes as\n%x\nnot\n%x", kind, again, rec)
		}
	})
}

// TestReplayRecordRejectsTruncation: every proper prefix of a binary
// record, and the record with any other format version, is an error —
// except the bare marker a departmany commit's prefix spells.
func TestReplayRecordRejectsTruncation(t *testing.T) {
	_, bin := replaySeeds(t)
	for _, rec := range bin {
		kind := rec[0] &^ recBinary
		step := 1 + len(rec)/1024 // a sample of a large snapshot's prefixes
		for n := 1; n < len(rec); n += step {
			if n == 1 && !hasPayload(kind) {
				continue
			}
			if err := newReplayState().apply(rec[:n]); err == nil {
				t.Fatalf("kind %d: %d-byte prefix of a %d-byte record replays", kind, n, len(rec))
			}
		}
		if len(rec) > 1 {
			bad := append([]byte(nil), rec...)
			bad[1]++
			if _, _, err := decodeRec(bad); err == nil {
				t.Fatalf("kind %d: format version %d accepted", kind, bad[1])
			}
		}
	}
}
