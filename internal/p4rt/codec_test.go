package p4rt

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"testing"

	"sfp/internal/nf"
)

// randSFCSpec draws an arbitrary spec, including awkward values (zeroes,
// max uints, empty slices, escape-needing strings).
func randSFCSpec(rng *rand.Rand) *SFCSpec {
	actions := []string{"permit", "fwd", "dnat", `we"ird\act`, "uni·code", ""}
	s := &SFCSpec{
		Tenant:        rng.Uint32(),
		BandwidthGbps: []float64{0, 1.5, 10, 0.0001, 123456.789}[rng.Intn(5)],
	}
	for i := 0; i < rng.Intn(4); i++ {
		n := NFSpec{Type: []string{"firewall", "router", "lb", ""}[rng.Intn(4)]}
		for j := 0; j < rng.Intn(3); j++ {
			r := RuleSpec{
				Priority: rng.Intn(100) - 50,
				Action:   actions[rng.Intn(len(actions))],
			}
			for k := 0; k < rng.Intn(3); k++ {
				r.Matches = append(r.Matches, MatchSpec{
					Value:     rng.Uint64(),
					Mask:      rng.Uint64(),
					PrefixLen: rng.Intn(33),
					Lo:        rng.Uint64(),
					Hi:        ^uint64(0),
				})
			}
			for k := 0; k < rng.Intn(3); k++ {
				r.Params = append(r.Params, rng.Uint64())
			}
			n.Rules = append(n.Rules, r)
		}
		s.NFs = append(s.NFs, n)
	}
	return s
}

func TestSFCSpecCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		orig := randSFCSpec(rng)
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back SFCSpec
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, raw, err)
		}
		if !reflect.DeepEqual(orig, &back) {
			t.Fatalf("case %d: round trip mismatch:\n orig %+v\n back %+v\n wire %s", i, orig, &back, raw)
		}
	}
}

func TestPlacementSpecCodecRoundTrip(t *testing.T) {
	specs := []PlacementSpec{
		{},
		{NFIndex: 3, Type: "firewall", Stage: 2, Pass: 1},
		{NFIndex: 0, Type: `odd"name`, Stage: 11, Pass: 3},
	}
	raw, err := json.Marshal(specs)
	if err != nil {
		t.Fatal(err)
	}
	var back []PlacementSpec
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal %s: %v", raw, err)
	}
	if !reflect.DeepEqual(specs, back) {
		t.Fatalf("round trip mismatch:\n orig %+v\n back %+v\n wire %s", specs, back, raw)
	}
}

// TestRequestCodecRoundTrip exercises the hand-rolled envelope encoder
// and decoder across every field, including batch sub-ops.
func TestRequestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	reqs := []*Request{
		{Type: MsgPing, ID: 1, Client: 2},
		{Type: MsgInstallPhysical, ID: 9, Client: 3, Stage: 2, NFType: "firewall", Capacity: 64},
		{Type: MsgAllocate, ID: 10, Client: 3, SFC: randSFCSpec(rng)},
		{Type: MsgAllocateAt, ID: 11, Client: 3, SFC: randSFCSpec(rng),
			Placements: []PlacementSpec{{NFIndex: 0, Type: "router", Stage: 1, Pass: 0}}},
		{Type: MsgDeallocate, ID: 12, Client: 3, Tenant: 77},
		{Type: MsgInject, ID: 13, Client: 3, Wire: []byte{0, 1, 2, 0xff, 0x80}, NowNs: 1234.5},
		{Type: MsgBatch, ID: 14, Client: 3, Ops: []BatchOp{
			OpInstallPhysical(0, nf.Firewall, 100),
			{Type: MsgAllocateAt, SFC: randSFCSpec(rng),
				Placements: []PlacementSpec{{NFIndex: 1, Type: "lb", Stage: 2, Pass: 1}}},
			OpDeallocate(5),
		}},
	}
	for i, orig := range reqs {
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back Request
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, raw, err)
		}
		if !reflect.DeepEqual(orig, &back) {
			t.Fatalf("case %d: round trip mismatch:\n orig %+v\n back %+v\n wire %s", i, orig, &back, raw)
		}
	}
}

// TestResponseCodecRoundTrip covers every response field, including the
// nested stats/inject objects and batch results.
func TestResponseCodecRoundTrip(t *testing.T) {
	resps := []*Response{
		{OK: true, ID: 4},
		{OK: false, ID: 5, Error: `bad "thing"`, Transient: true},
		{OK: true, ID: 6, Placements: []PlacementSpec{{NFIndex: 2, Type: "nat", Stage: 0, Pass: 2}}, Passes: 3},
		{OK: true, ID: 7, Layout: [][]string{{"firewall", "router"}, {}, {"lb"}}},
		{OK: true, ID: 8, Stats: &Stats{Stages: 4, BlocksUsed: 3, EntriesUsed: 99,
			BandwidthGbps: 12.5, Tenants: 7, Processed: 1 << 40, Recirculated: 17}},
		{OK: true, ID: 9, Inject: &InjectResult{LatencyNs: 420.5, Passes: 2, Dropped: true,
			EgressPort: 65535, TablesApplied: 6, Wire: []byte{9, 8, 7}}},
		{OK: true, ID: 10, Results: []BatchResult{
			{OK: true, Passes: 1},
			{OK: false, Error: "nope"},
			{OK: true, Placements: []PlacementSpec{{NFIndex: 0, Type: "firewall", Stage: 0, Pass: 0}}, Passes: 2},
		}},
	}
	for i, orig := range resps {
		raw, err := json.Marshal(orig)
		if err != nil {
			t.Fatalf("case %d: marshal: %v", i, err)
		}
		var back Response
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("case %d: unmarshal %s: %v", i, raw, err)
		}
		if !reflect.DeepEqual(orig, &back) {
			t.Fatalf("case %d: round trip mismatch:\n orig %+v\n back %+v\n wire %s", i, orig, &back, raw)
		}
	}
}

// TestEnvelopeDecodeSkipsUnknownFields: a newer peer may send fields this
// build does not know; the decoder must skip them, not desynchronize.
func TestEnvelopeDecodeSkipsUnknownFields(t *testing.T) {
	wire := []byte(`{"type":"ping","future":{"a":[1,2,{"b":"c"}],"d":null},"id":3,"x":"y\n","z":-1.5e3}`)
	var req Request
	if err := json.Unmarshal(wire, &req); err != nil {
		t.Fatal(err)
	}
	if req.Type != MsgPing || req.ID != 3 {
		t.Fatalf("decoded %+v", req)
	}
	rwire := []byte(`{"ok":true,"id":9,"unknown":[[]],"passes":2}`)
	var resp Response
	if err := json.Unmarshal(rwire, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.ID != 9 || resp.Passes != 2 {
		t.Fatalf("decoded %+v", resp)
	}
}

// TestCodecToleratesWhitespace: foreign controllers may pretty-print.
func TestCodecToleratesWhitespace(t *testing.T) {
	wire := []byte(" [ 7 , 2.5 , [ [ \"firewall\" , [ [ 1 , [ [0,0,0,0,0] ] , \"permit\" , [ ] ] ] ] ] ] ")
	var s SFCSpec
	if err := json.Unmarshal(wire, &s); err != nil {
		t.Fatal(err)
	}
	if s.Tenant != 7 || s.BandwidthGbps != 2.5 || len(s.NFs) != 1 || len(s.NFs[0].Rules) != 1 {
		t.Fatalf("decoded %+v", s)
	}
	if s.NFs[0].Rules[0].Action != "permit" || len(s.NFs[0].Rules[0].Matches) != 1 {
		t.Fatalf("decoded rule %+v", s.NFs[0].Rules[0])
	}
}
