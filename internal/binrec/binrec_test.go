package binrec

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/vswitch"
)

// randomSFC draws an SFC whose fields hit every match flag and edge value.
func randomSFC(rng *rand.Rand) *vswitch.SFC {
	u64 := func() uint64 {
		return []uint64{0, 1, 127, 128, 1 << 32, ^uint64(0), rng.Uint64()}[rng.Intn(7)]
	}
	s := &vswitch.SFC{
		Tenant:        []uint32{0, 1, math.MaxUint32, rng.Uint32()}[rng.Intn(4)],
		BandwidthGbps: []float64{0, 0.05, 1e-300, math.Inf(1), math.Copysign(0, -1), rng.Float64()}[rng.Intn(6)],
	}
	for j := rng.Intn(4); j > 0; j-- {
		t := nf.Type(1 + rng.Intn(nf.TypeCount))
		spec := nf.ForType(t)
		cfg := &nf.Config{Type: t, Rules: []nf.ConfigRule{}}
		for k := rng.Intn(4); k > 0; k-- {
			r := nf.ConfigRule{
				Priority: []int{0, -1, 100, math.MinInt32, rng.Int()}[rng.Intn(5)],
				Action:   actionNames[t][rng.Intn(len(actionNames[t]))],
				Matches:  make([]pipeline.Match, len(spec.Keys)),
			}
			for m := range r.Matches {
				r.Matches[m] = pipeline.Match{Value: u64(), Mask: u64(), PrefixLen: rng.Intn(65) - 32, Lo: u64(), Hi: u64()}
			}
			for p := rng.Intn(3); p > 0; p-- {
				r.Params = append(r.Params, u64())
			}
			cfg.Rules = append(cfg.Rules, r)
		}
		s.NFs = append(s.NFs, cfg)
	}
	return s
}

// TestSFCRoundTrip: a decoded SFC equals the encoded one field for field
// (bandwidth bit for bit), and re-encodes to the same bytes.
func TestSFCRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		s := randomSFC(rng)
		b, err := AppendSFC([]byte{0xee}, s)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(b[1:])
		got := d.SFC()
		if err := d.Finish(); err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Float64bits(got.BandwidthGbps) != math.Float64bits(s.BandwidthGbps) {
			t.Fatalf("case %d: bandwidth %v, want %v", i, got.BandwidthGbps, s.BandwidthGbps)
		}
		got.BandwidthGbps = s.BandwidthGbps
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("case %d: decoded\n%+v\nwant\n%+v", i, got, s)
		}
		again, err := AppendSFC(nil, got)
		if err != nil || !bytes.Equal(again, b[1:]) {
			t.Fatalf("case %d: re-encoding differs (%v)", i, err)
		}
	}
}

// TestSFCChecks: the decoder runs the NF checks of the wire conversion —
// a type outside the catalogue and a rule nf.Config.Validate rejects are
// errors — and the encoder refuses a type it cannot encode.
func TestSFCChecks(t *testing.T) {
	good := &vswitch.SFC{Tenant: 5, NFs: []*nf.Config{nf.Synthesize(nf.Router, 2, rand.New(rand.NewSource(1)))}}
	if _, err := AppendSFC(nil, &vswitch.SFC{NFs: []*nf.Config{{Type: 0}}}); err == nil {
		t.Fatal("encoded NF type 0")
	}
	for _, tc := range []struct {
		name   string
		mutate func(s *vswitch.SFC)
	}{
		{"unknown action", func(s *vswitch.SFC) { s.NFs[0].Rules[0].Action = "nope" }},
		{"match count", func(s *vswitch.SFC) { s.NFs[0].Rules[1].Matches = nil }},
	} {
		bad := &vswitch.SFC{Tenant: good.Tenant}
		cfg := *good.NFs[0]
		cfg.Rules = append([]nf.ConfigRule(nil), cfg.Rules...)
		bad.NFs = []*nf.Config{&cfg}
		tc.mutate(bad)
		b, err := AppendSFC(nil, bad)
		if err != nil {
			t.Fatal(err)
		}
		d := NewDecoder(b)
		if d.SFC() != nil || d.Finish() == nil {
			t.Fatalf("%s: decoded", tc.name)
		}
	}
	b, _ := AppendSFC(nil, good)
	b[1+8+4] = byte(nf.TypeCount + 1) // the first NF's type byte
	if d := NewDecoder(b); d.SFC() != nil || d.Finish() == nil {
		t.Fatal("decoded an NF type outside the catalogue")
	}
}

// TestDecoderRejectsNonCanonical: bytes the encoder never writes are
// errors, so a decoded record re-encodes to itself.
func TestDecoderRejectsNonCanonical(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    []byte
		read func(d *Decoder)
	}{
		{"overlong zero", []byte{0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"overlong one", []byte{0x81, 0x80, 0x00}, func(d *Decoder) { d.Uvarint() }},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(d *Decoder) { d.Uvarint() }},
		{"bool 2", []byte{2}, func(d *Decoder) { d.Bool() }},
		{"tenant over 32 bits", AppendUvarint(nil, 1<<32), func(d *Decoder) { d.Uint32() }},
		{"bools padding", []byte{3, 0x0f}, func(d *Decoder) { d.Bools() }},
		{"match flag 0x40", []byte{0x40}, func(d *Decoder) { d.match(&pipeline.Match{}) }},
		{"mask and all-ones", []byte{matchMask | matchMaskAll, 1}, func(d *Decoder) { d.match(&pipeline.Match{}) }},
		{"present zero value", []byte{matchValue, 0}, func(d *Decoder) { d.match(&pipeline.Match{}) }},
		{"spelled all-ones mask", AppendUvarint([]byte{matchMask}, ^uint64(0)), func(d *Decoder) { d.match(&pipeline.Match{}) }},
		{"truncated float", []byte{1, 2, 3}, func(d *Decoder) { d.Float64() }},
		{"trailing byte", []byte{1, 0}, func(d *Decoder) { d.Byte() }},
	} {
		d := NewDecoder(tc.b)
		tc.read(d)
		if d.Finish() == nil {
			t.Errorf("%s: accepted % x", tc.name, tc.b)
		}
	}
}

// TestCountBoundsAllocation: a count larger than the bytes left fails
// before anything is allocated for it.
func TestCountBoundsAllocation(t *testing.T) {
	huge := AppendUvarint(nil, 1<<40)
	if d := NewDecoder(huge); d.Count(1) != 0 || d.Finish() == nil {
		t.Fatal("count past the record accepted")
	}
	// An SFC header claiming 2^40 rules.
	b := AppendFloat64(AppendUvarint(nil, 1), 1)
	b = append(AppendUvarint(AppendUvarint(b, 1), 1<<40), 0, 0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		if d := NewDecoder(b); d.SFC() != nil || d.Finish() == nil {
			t.Fatal("decoded")
		}
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 64<<10 {
		t.Fatalf("decoding a corrupt count 10 times allocated %d bytes", n)
	}
	d := NewDecoder([]byte{3, 1})
	if d.Count(1); d.Finish() == nil {
		t.Fatal("3 one-byte elements accepted in 1 byte")
	}
}

func TestBoolsRoundTrip(t *testing.T) {
	for n := 0; n < 20; n++ {
		v := make([]bool, n)
		for i := range v {
			v[i] = (i*7)%3 == 0
		}
		b := AppendBools(nil, v)
		d := NewDecoder(b)
		got := d.Bools()
		if err := d.Finish(); err != nil || len(got) != n || (n > 0 && !reflect.DeepEqual(got, v)) {
			t.Fatalf("n=%d: %v, %v", n, got, err)
		}
	}
}
