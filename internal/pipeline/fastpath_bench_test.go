package pipeline

// Fast-path micro-benchmarks. Comparing BenchmarkLookupTenants1024 with
// BenchmarkLookupTenants1 shows that the tenant-sharded index makes lookup
// cost flat in tenant count rather than linear in total rule count. The
// zero-allocation property of the hot path is a test: TestHotPathZeroAlloc.

import (
	"testing"

	"sfp/internal/packet"
)

// shardedTable builds a physical-NF-shaped table: exact (tenant, pass)
// prefix followed by ternary keys, with rulesPer rules per tenant.
func shardedTable(b testing.TB, tenants, rulesPer int) *Table {
	keys := []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldPass, Kind: MatchExact},
		{Field: FieldIPv4Dst, Kind: MatchTernary},
		{Field: FieldDstPort, Kind: MatchTernary},
	}
	t := NewTable("bench", keys, tenants*rulesPer+1)
	t.RegisterAction("permit", func(ctx *Context, p *packet.Packet, params []uint64) {})
	for tn := 1; tn <= tenants; tn++ {
		for r := 0; r < rulesPer; r++ {
			err := t.Insert(&Rule{
				Priority: r,
				Matches: []Match{
					Eq(uint64(tn)), Eq(0),
					Masked(uint64(0x0a000000+r), 0xffffffff), Wildcard(),
				},
				Action: "permit",
				Tenant: uint32(tn),
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	return t
}

func benchLookupTenants(b *testing.B, tenants int) {
	tbl := shardedTable(b, tenants, 8)
	p := packet.NewBuilder().
		WithTenant(uint32(tenants)).
		WithIPv4(packet.IPv4Addr(10, 0, 0, 7), packet.IPv4Addr(10, 0, 0, 1)).
		WithTCP(1234, 80).
		Build()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Lookup(p)
	}
}

func BenchmarkLookupTenants1(b *testing.B)    { benchLookupTenants(b, 1) }
func BenchmarkLookupTenants64(b *testing.B)   { benchLookupTenants(b, 64) }
func BenchmarkLookupTenants1024(b *testing.B) { benchLookupTenants(b, 1024) }

// benchPipeline hosts the sharded table on stage 0 of a default pipeline.
func benchPipeline(b testing.TB, tenants int) (*Pipeline, *packet.Packet) {
	pl := New(DefaultConfig())
	if err := pl.Stages[0].AddTable(shardedTable(b, tenants, 8)); err != nil {
		b.Fatal(err)
	}
	p := packet.NewBuilder().
		WithTenant(uint32(tenants)).
		WithIPv4(packet.IPv4Addr(10, 0, 0, 7), packet.IPv4Addr(10, 0, 0, 1)).
		WithTCP(1234, 80).
		Build()
	return pl, p
}

// BenchmarkProcess measures the full per-packet path through an 8-stage
// pipeline (pooled Context; previously one Context allocation per stage).
func BenchmarkProcess(b *testing.B) {
	pl, p := benchPipeline(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Meta.Pass = 0
		p.Meta.Recirculate = false
		pl.Process(p, float64(i))
	}
}

// BenchmarkProcessCtx is BenchmarkProcess with a caller-owned scratch
// Context — the replay engine's zero-overhead entry point.
func BenchmarkProcessCtx(b *testing.B) {
	pl, p := benchPipeline(b, 64)
	var ctx Context
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Meta.Pass = 0
		p.Meta.Recirculate = false
		pl.ProcessCtx(p, float64(i), &ctx)
	}
}

// BenchmarkDeleteTenantChurn measures one tenant departing and re-arriving
// on a loaded exact table. The legacy path rebuilt the whole exact index on
// every departure (O(total rules)); the incremental path touches only the
// departing tenant's keys.
func BenchmarkDeleteTenantChurn(b *testing.B) {
	keys := []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldIPv4Dst, Kind: MatchExact},
	}
	const tenants, rulesPer = 256, 8
	tbl := NewTable("churn", keys, tenants*rulesPer)
	tbl.RegisterAction("permit", func(ctx *Context, p *packet.Packet, params []uint64) {})
	insert := func(tn uint32) {
		for r := 0; r < rulesPer; r++ {
			err := tbl.Insert(&Rule{
				Matches: []Match{Eq(uint64(tn)), Eq(uint64(r))},
				Action:  "permit", Tenant: tn,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	for tn := 1; tn <= tenants; tn++ {
		insert(uint32(tn))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := uint32(1 + i%tenants)
		tbl.DeleteTenant(tn)
		insert(tn)
	}
}

// BenchmarkDeleteTenantChurnSharded is the same churn on a sharded
// ternary-suffix table, the shape every physical NF table has.
func BenchmarkDeleteTenantChurnSharded(b *testing.B) {
	const tenants, rulesPer = 256, 8
	tbl := shardedTable(b, tenants, rulesPer)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tn := uint32(1 + i%tenants)
		tbl.DeleteTenant(tn)
		for r := 0; r < rulesPer; r++ {
			err := tbl.Insert(&Rule{
				Priority: r,
				Matches: []Match{
					Eq(uint64(tn)), Eq(0),
					Masked(uint64(0x0a000000+r), 0xffffffff), Wildcard(),
				},
				Action: "permit",
				Tenant: tn,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
}
