package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sfp/internal/packet"
)

func testPkt(tenant uint32, dst uint32, dport uint16) *packet.Packet {
	return packet.NewBuilder().
		WithTenant(tenant).
		WithIPv4(packet.IPv4Addr(10, 0, 0, 1), dst).
		WithTCP(4000, dport).
		Build()
}

func newFwdTable(name string, capacity int) *Table {
	t := NewTable(name, []Key{
		{FieldTenantID, MatchExact},
		{FieldDstPort, MatchExact},
	}, capacity)
	t.RegisterAction("fwd", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.EgressPort = uint16(params[0])
	})
	t.RegisterAction("noop", func(ctx *Context, p *packet.Packet, params []uint64) {})
	t.SetDefault("noop")
	return t
}

func TestExactLookup(t *testing.T) {
	tbl := newFwdTable("t", 10)
	if err := tbl.Insert(&Rule{Matches: []Match{Eq(7), Eq(80)}, Action: "fwd", Params: []uint64{3}}); err != nil {
		t.Fatal(err)
	}
	p := testPkt(7, 99, 80)
	ctx := &Context{}
	if r := tbl.Apply(ctx, p); r == nil {
		t.Fatal("expected hit")
	}
	if p.Meta.EgressPort != 3 {
		t.Errorf("egress = %d, want 3", p.Meta.EgressPort)
	}
	p2 := testPkt(8, 99, 80) // wrong tenant
	if r := tbl.Apply(ctx, p2); r != nil {
		t.Error("expected miss for other tenant")
	}
	if tbl.Hits() != 1 || tbl.Misses() != 1 {
		t.Errorf("hits/misses = %d/%d, want 1/1", tbl.Hits(), tbl.Misses())
	}
}

func TestTernaryPriority(t *testing.T) {
	tbl := NewTable("acl", []Key{{FieldIPv4Dst, MatchTernary}}, 10)
	drop := func(ctx *Context, p *packet.Packet, params []uint64) { p.Meta.Drop = true }
	allow := func(ctx *Context, p *packet.Packet, params []uint64) {}
	tbl.RegisterAction("drop", drop)
	tbl.RegisterAction("allow", allow)
	// Low-priority drop-all, high-priority allow for 10.0.0.0/8.
	mustInsert(t, tbl, &Rule{Priority: 1, Matches: []Match{Wildcard()}, Action: "drop"})
	mustInsert(t, tbl, &Rule{Priority: 10, Matches: []Match{Masked(uint64(packet.IPv4Addr(10, 0, 0, 0)), 0xff000000)}, Action: "allow"})

	p := testPkt(1, packet.IPv4Addr(10, 5, 5, 5), 80)
	tbl.Apply(&Context{}, p)
	if p.Meta.Drop {
		t.Error("10/8 packet dropped despite high-priority allow")
	}
	p2 := testPkt(1, packet.IPv4Addr(11, 5, 5, 5), 80)
	tbl.Apply(&Context{}, p2)
	if !p2.Meta.Drop {
		t.Error("non-10/8 packet not dropped by wildcard rule")
	}
}

func TestLPMLongestPrefixWins(t *testing.T) {
	tbl := NewTable("rt", []Key{{FieldIPv4Dst, MatchLPM}}, 10)
	tbl.RegisterAction("fwd", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.EgressPort = uint16(params[0])
	})
	mustInsert(t, tbl, &Rule{Matches: []Match{Prefix(uint64(packet.IPv4Addr(10, 0, 0, 0)), 8)}, Action: "fwd", Params: []uint64{1}})
	mustInsert(t, tbl, &Rule{Matches: []Match{Prefix(uint64(packet.IPv4Addr(10, 1, 0, 0)), 16)}, Action: "fwd", Params: []uint64{2}})
	p := testPkt(1, packet.IPv4Addr(10, 1, 2, 3), 80)
	tbl.Apply(&Context{}, p)
	if p.Meta.EgressPort != 2 {
		t.Errorf("egress = %d, want 2 (/16 beats /8)", p.Meta.EgressPort)
	}
	p2 := testPkt(1, packet.IPv4Addr(10, 9, 2, 3), 80)
	tbl.Apply(&Context{}, p2)
	if p2.Meta.EgressPort != 1 {
		t.Errorf("egress = %d, want 1 (/8)", p2.Meta.EgressPort)
	}
}

func TestRangeMatch(t *testing.T) {
	tbl := NewTable("cls", []Key{{FieldDstPort, MatchRange}}, 4)
	tbl.RegisterAction("mark", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.ClassID = uint16(params[0])
	})
	mustInsert(t, tbl, &Rule{Matches: []Match{Between(1024, 49151)}, Action: "mark", Params: []uint64{2}})
	p := testPkt(1, 5, 8080)
	tbl.Apply(&Context{}, p)
	if p.Meta.ClassID != 2 {
		t.Errorf("class = %d, want 2", p.Meta.ClassID)
	}
	p2 := testPkt(1, 5, 80)
	tbl.Apply(&Context{}, p2)
	if p2.Meta.ClassID != 0 {
		t.Errorf("class = %d, want 0 (miss)", p2.Meta.ClassID)
	}
}

func TestCapacityExhaustion(t *testing.T) {
	tbl := newFwdTable("t", 2)
	mustInsert(t, tbl, &Rule{Matches: []Match{Eq(1), Eq(1)}, Action: "fwd", Params: []uint64{1}})
	mustInsert(t, tbl, &Rule{Matches: []Match{Eq(2), Eq(2)}, Action: "fwd", Params: []uint64{1}})
	if err := tbl.Insert(&Rule{Matches: []Match{Eq(3), Eq(3)}, Action: "fwd", Params: []uint64{1}}); err == nil {
		t.Error("insert beyond capacity succeeded")
	}
}

func TestInsertValidation(t *testing.T) {
	tbl := newFwdTable("t", 5)
	if err := tbl.Insert(&Rule{Matches: []Match{Eq(1)}, Action: "fwd"}); err == nil {
		t.Error("arity mismatch accepted")
	}
	if err := tbl.Insert(&Rule{Matches: []Match{Eq(1), Eq(2)}, Action: "nosuch"}); err == nil {
		t.Error("unknown action accepted")
	}
}

func TestDeleteTenant(t *testing.T) {
	tbl := newFwdTable("t", 10)
	for i := uint64(0); i < 6; i++ {
		tenant := uint32(1 + i%2)
		mustInsert(t, tbl, &Rule{Matches: []Match{Eq(uint64(tenant)), Eq(i)}, Action: "fwd", Params: []uint64{1}, Tenant: tenant})
	}
	if freed := tbl.DeleteTenant(1); freed != 3 {
		t.Errorf("freed = %d, want 3", freed)
	}
	if tbl.Used() != 3 {
		t.Errorf("used = %d, want 3", tbl.Used())
	}
	// Remaining tenant-2 rules must still be reachable via the rebuilt index.
	p := testPkt(2, 5, 1)
	if r := tbl.Apply(&Context{}, p); r == nil {
		t.Error("tenant-2 rule lost after DeleteTenant(1)")
	}
	// A rule object is installed at most once; deleting it frees it for
	// reinsertion.
	r := &Rule{Matches: []Match{Eq(3), Eq(9)}, Action: "fwd", Params: []uint64{1}, Tenant: 3}
	mustInsert(t, tbl, r)
	if err := tbl.Insert(r); err == nil {
		t.Error("an installed rule was inserted again")
	}
	if freed := tbl.DeleteTenant(2) + tbl.DeleteTenant(3); freed != 4 || tbl.Used() != 0 {
		t.Errorf("freed = %d, used = %d; want 4, 0", freed, tbl.Used())
	}
	mustInsert(t, tbl, r)
}

func TestStageBlockAccounting(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EntriesPerBlock = 100
	cfg.BlocksPerStage = 3
	pl := New(cfg)
	st := pl.Stages[0]
	if err := st.AddTable(newFwdTable("a", 150)); err != nil { // 2 blocks
		t.Fatal(err)
	}
	if got := st.BlocksUsed(); got != 2 {
		t.Errorf("blocks = %d, want 2 (ceil(150/100))", got)
	}
	if err := st.AddTable(newFwdTable("b", 100)); err != nil { // 1 block
		t.Fatal(err)
	}
	if err := st.AddTable(newFwdTable("c", 1)); err == nil {
		t.Error("table accepted beyond block budget")
	}
	if !st.RemoveTable("b") {
		t.Error("RemoveTable failed")
	}
	if err := st.AddTable(newFwdTable("c", 1)); err != nil {
		t.Errorf("table rejected after removal: %v", err)
	}
}

func TestRecirculation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 3
	cfg.MaxPasses = 3
	pl := New(cfg)
	last := pl.Stages[2]
	tbl := NewTable("tail", []Key{{FieldPass, MatchExact}}, 4)
	tbl.RegisterAction("noop", func(ctx *Context, p *packet.Packet, params []uint64) {})
	// Pass 0 recirculates (REC set); pass 1 terminates.
	mustInsert(t, tbl, &Rule{Matches: []Match{Eq(0)}, Action: "noop", Rec: true})
	mustInsert(t, tbl, &Rule{Matches: []Match{Eq(1)}, Action: "noop"})
	if err := last.AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	p := testPkt(1, 5, 80)
	res := pl.Process(p, 0)
	if res.Passes != 2 {
		t.Errorf("passes = %d, want 2", res.Passes)
	}
	if p.Meta.Pass != 1 {
		t.Errorf("pass counter = %d, want 1", p.Meta.Pass)
	}
	// Two passes × three stages of traversal, two applied tables (the
	// pass-0 and pass-1 rules), one recirculation.
	wantLat := cfg.ParserNs + 2*3*cfg.PerStageNs + 2*cfg.PerTableNs + cfg.RecircNs + cfg.DeparserNs
	if res.LatencyNs != wantLat {
		t.Errorf("latency = %v, want %v", res.LatencyNs, wantLat)
	}
	if pl.Recirculated() != 1 {
		t.Errorf("recirculated counter = %d, want 1", pl.Recirculated())
	}
}

func TestMaxPassesBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 1
	cfg.MaxPasses = 4
	pl := New(cfg)
	tbl := NewTable("loop", []Key{{FieldPass, MatchTernary}}, 1)
	tbl.RegisterAction("noop", func(ctx *Context, p *packet.Packet, params []uint64) {})
	mustInsert(t, tbl, &Rule{Matches: []Match{Wildcard()}, Action: "noop", Rec: true})
	if err := pl.Stages[0].AddTable(tbl); err != nil {
		t.Fatal(err)
	}
	res := pl.Process(testPkt(1, 5, 80), 0)
	if res.Passes != 4 {
		t.Errorf("passes = %d, want MaxPasses=4 (always-recirculate rule)", res.Passes)
	}
}

func TestDropShortCircuits(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Stages = 4
	pl := New(cfg)
	dropTbl := NewTable("fw", []Key{{FieldIPv4Dst, MatchTernary}}, 2)
	dropTbl.RegisterAction("drop", func(ctx *Context, p *packet.Packet, params []uint64) { p.Meta.Drop = true })
	mustInsert(t, dropTbl, &Rule{Matches: []Match{Wildcard()}, Action: "drop"})
	if err := pl.Stages[1].AddTable(dropTbl); err != nil {
		t.Fatal(err)
	}
	marker := NewTable("later", []Key{{FieldIPv4Dst, MatchTernary}}, 2)
	marker.RegisterAction("mark", func(ctx *Context, p *packet.Packet, params []uint64) { p.Meta.ClassID = 9 })
	mustInsert(t, marker, &Rule{Matches: []Match{Wildcard()}, Action: "mark"})
	if err := pl.Stages[3].AddTable(marker); err != nil {
		t.Fatal(err)
	}
	p := testPkt(1, 5, 80)
	res := pl.Process(p, 0)
	if !res.Dropped {
		t.Error("packet not dropped")
	}
	if p.Meta.ClassID == 9 {
		t.Error("stage after drop still executed")
	}
}

func TestRegisterFile(t *testing.T) {
	rf := NewRegisterFile()
	if err := rf.Alloc("tokens", 8); err != nil {
		t.Fatal(err)
	}
	if err := rf.Alloc("tokens", 8); err == nil {
		t.Error("double alloc accepted")
	}
	if err := rf.Alloc("bad", 0); err == nil {
		t.Error("zero-size alloc accepted")
	}
	rf.Write("tokens", 3, 42)
	if got := rf.Read("tokens", 3); got != 42 {
		t.Errorf("read = %d, want 42", got)
	}
	if got := rf.Add("tokens", 3, -2); got != 40 {
		t.Errorf("add = %d, want 40", got)
	}
	if got := rf.Read("tokens", 99); got != 0 {
		t.Errorf("out-of-range read = %d, want 0", got)
	}
	rf.Write("tokens", -1, 5) // must not panic
	rf.Free("tokens")
	if rf.Size("tokens") != 0 {
		t.Error("Free did not release array")
	}
}

// Property: a ternary match with a full mask behaves exactly like an exact
// match, for arbitrary field values.
func TestTernaryFullMaskEqualsExact(t *testing.T) {
	f := func(ruleVal, pktVal uint32) bool {
		ternary := Match{Value: uint64(ruleVal), Mask: ^uint64(0)}
		exact := Match{Value: uint64(ruleVal)}
		v := uint64(pktVal)
		return ternary.matches(v, MatchTernary, 32) == exact.matches(v, MatchExact, 32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// Property: LPM with prefix length 32 equals exact; prefix length 0 matches
// everything.
func TestLPMBoundaryProperties(t *testing.T) {
	f := func(ruleVal, pktVal uint32) bool {
		full := Match{Value: uint64(ruleVal), PrefixLen: 32}
		if full.matches(uint64(pktVal), MatchLPM, 32) != (ruleVal == pktVal) {
			return false
		}
		any := Match{Value: uint64(ruleVal), PrefixLen: 0}
		return any.matches(uint64(pktVal), MatchLPM, 32)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestLineRatePPS(t *testing.T) {
	// 100 Gbps at 64B frames: 100e9 / (84*8) = 148.8 Mpps.
	got := LineRatePPS(100, 64)
	if got < 148.8e6*0.99 || got > 148.8e6*1.01 {
		t.Errorf("LineRatePPS(100,64) = %g, want ≈148.8e6", got)
	}
}

func TestFieldExtract(t *testing.T) {
	p := packet.NewBuilder().WithVLAN(33).WithIPv4(0x0a000001, 0x0a000002).WithTCP(1234, 443).WithTCPFlags(packet.TCPSyn).Build()
	p.Meta.Pass = 2
	p.Meta.ClassID = 5
	p.Meta.IngressPort = 9
	cases := []struct {
		f    FieldID
		want uint64
	}{
		{FieldTenantID, 33},
		{FieldPass, 2},
		{FieldVLANID, 33},
		{FieldIPv4Src, 0x0a000001},
		{FieldIPv4Dst, 0x0a000002},
		{FieldIPProto, uint64(packet.ProtoTCP)},
		{FieldSrcPort, 1234},
		{FieldDstPort, 443},
		{FieldTCPFlags, uint64(packet.TCPSyn)},
		{FieldClassID, 5},
		{FieldIngressPort, 9},
		{FieldEtherType, uint64(packet.EtherTypeVLAN)},
	}
	for _, c := range cases {
		if got := Extract(p, c.f); got != c.want {
			t.Errorf("Extract(%v) = %d, want %d", c.f, got, c.want)
		}
	}
	// UDP port extraction.
	u := packet.NewBuilder().WithIPv4(1, 2).WithUDP(53, 5353).Build()
	if Extract(u, FieldSrcPort) != 53 || Extract(u, FieldDstPort) != 5353 {
		t.Error("UDP port extraction failed")
	}
	// Invalid headers read as zero.
	bare := &packet.Packet{}
	if Extract(bare, FieldIPv4Src) != 0 || Extract(bare, FieldTCPFlags) != 0 {
		t.Error("invalid header fields should read 0")
	}
}

func mustInsert(t *testing.T, tbl *Table, r *Rule) {
	t.Helper()
	if err := tbl.Insert(r); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExactLookup(b *testing.B) {
	tbl := newFwdTable("t", 10000)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		tbl.Insert(&Rule{Matches: []Match{Eq(uint64(i % 64)), Eq(uint64(i))}, Action: "fwd", Params: []uint64{1}})
	}
	p := testPkt(uint32(rng.Intn(64)), 5, uint16(rng.Intn(10000)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(p)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	pl := New(DefaultConfig())
	for i, st := range pl.Stages {
		tbl := newFwdTable("t", 100)
		tbl.Insert(&Rule{Matches: []Match{Eq(1), Eq(80)}, Action: "fwd", Params: []uint64{uint64(i)}})
		st.AddTable(tbl)
	}
	p := testPkt(1, 5, 80)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Meta.Pass = 0
		pl.Process(p, float64(i))
	}
}
