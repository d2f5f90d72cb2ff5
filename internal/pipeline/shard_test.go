package pipeline

import (
	"math/rand"
	"sort"
	"testing"

	"sfp/internal/packet"
)

// refLookup is an independent reference implementation of table lookup: a
// stable sort of all rules by (priority desc, max prefix desc) followed by
// a full linear scan — exactly the legacy algorithm the sharded index
// replaced. The property tests assert the fast path returns the identical
// rule (pointer equality, so priority and LPM tie-breaks must agree too).
func refLookup(keys []Key, rules []*Rule, p *packet.Packet) *Rule {
	ordered := append([]*Rule(nil), rules...)
	sort.SliceStable(ordered, func(i, j int) bool {
		a, b := ordered[i], ordered[j]
		if a.Priority != b.Priority {
			return a.Priority > b.Priority
		}
		return maxPrefix(a) > maxPrefix(b)
	})
	for _, r := range ordered {
		ok := true
		for i, k := range keys {
			if !r.Matches[i].matches(Extract(p, k.Field), k.Kind, k.Field.Bits()) {
				ok = false
				break
			}
		}
		if ok {
			return r
		}
	}
	return nil
}

// randomSuffix builds one random match for the given key kind.
func randomSuffix(rng *rand.Rand, k Key) Match {
	switch k.Kind {
	case MatchExact:
		return Eq(uint64(rng.Intn(8)))
	case MatchTernary:
		if rng.Intn(3) == 0 {
			return Wildcard()
		}
		return Masked(uint64(rng.Uint32()), uint64(rng.Uint32()))
	case MatchLPM:
		return Prefix(uint64(rng.Uint32()), rng.Intn(33))
	case MatchRange:
		lo := uint64(rng.Intn(60000))
		return Between(lo, lo+uint64(rng.Intn(5000)))
	}
	return Wildcard()
}

// TestShardedLookupMatchesReference drives randomized multi-tenant rule
// sets through the sharded fast path and the legacy full scan and requires
// identical winners on every probe.
func TestShardedLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	keys := []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldPass, Kind: MatchExact},
		{Field: FieldIPv4Dst, Kind: MatchLPM},
		{Field: FieldDstPort, Kind: MatchRange},
		{Field: FieldIPProto, Kind: MatchTernary},
	}
	for trial := 0; trial < 20; trial++ {
		tenants := 1 + rng.Intn(40)
		tbl := NewTable("prop", keys, 4096)
		tbl.RegisterAction("act", func(ctx *Context, p *packet.Packet, params []uint64) {})
		if !tbl.Sharded() {
			t.Fatal("table with exact (tenant, pass) prefix should be sharded")
		}
		var rules []*Rule
		nRules := 1 + rng.Intn(200)
		for i := 0; i < nRules; i++ {
			r := &Rule{
				// Few distinct priorities so ties are common.
				Priority: rng.Intn(4),
				Matches: []Match{
					Eq(uint64(1 + rng.Intn(tenants))),
					Eq(uint64(rng.Intn(3))),
					randomSuffix(rng, keys[2]),
					randomSuffix(rng, keys[3]),
					randomSuffix(rng, keys[4]),
				},
				Action: "act",
				Tenant: uint32(1 + rng.Intn(tenants)),
			}
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			rules = append(rules, r)
		}
		for probe := 0; probe < 300; probe++ {
			p := packet.NewBuilder().
				WithTenant(uint32(1+rng.Intn(tenants))).
				WithIPv4(rng.Uint32(), rng.Uint32()).
				WithTCP(uint16(rng.Intn(65536)), uint16(rng.Intn(65536))).
				Build()
			p.Meta.Pass = uint8(rng.Intn(3))
			got := tbl.Lookup(p)
			want := refLookup(keys, rules, p)
			if got != want {
				t.Fatalf("trial %d probe %d: sharded lookup = %+v, reference = %+v", trial, probe, got, want)
			}
		}
	}
}

// TestGenericLookupMatchesReference covers the non-sharded sorted-scan path
// (no tenant prefix), validating that incremental sorted insertion agrees
// with the legacy lazy stable sort on priorities and LPM tie-breaks.
func TestGenericLookupMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	keys := []Key{
		{Field: FieldIPv4Dst, Kind: MatchLPM},
		{Field: FieldDstPort, Kind: MatchRange},
	}
	for trial := 0; trial < 20; trial++ {
		tbl := NewTable("generic", keys, 1024)
		tbl.RegisterAction("act", func(ctx *Context, p *packet.Packet, params []uint64) {})
		if tbl.Sharded() {
			t.Fatal("table without tenant prefix must not be sharded")
		}
		var rules []*Rule
		for i := 0; i < 1+rng.Intn(100); i++ {
			r := &Rule{
				Priority: rng.Intn(3),
				Matches:  []Match{randomSuffix(rng, keys[0]), randomSuffix(rng, keys[1])},
				Action:   "act",
			}
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			rules = append(rules, r)
		}
		for probe := 0; probe < 200; probe++ {
			p := packet.NewBuilder().
				WithIPv4(rng.Uint32(), rng.Uint32()).
				WithTCP(uint16(rng.Intn(65536)), uint16(rng.Intn(65536))).
				Build()
			got := tbl.Lookup(p)
			want := refLookup(keys, rules, p)
			if got != want {
				t.Fatalf("trial %d probe %d: generic lookup = %+v, reference = %+v", trial, probe, got, want)
			}
		}
	}
}

// TestShardedLookupAfterDeleteTenant checks that incremental shard deletion
// leaves the surviving tenants' lookups identical to the reference.
func TestShardedLookupAfterDeleteTenant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keys := []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldPass, Kind: MatchExact},
		{Field: FieldIPv4Dst, Kind: MatchTernary},
	}
	tbl := NewTable("churn", keys, 4096)
	tbl.RegisterAction("act", func(ctx *Context, p *packet.Packet, params []uint64) {})
	var live []*Rule
	for tn := 1; tn <= 20; tn++ {
		for i := 0; i < 10; i++ {
			r := &Rule{
				Priority: rng.Intn(3),
				Matches:  []Match{Eq(uint64(tn)), Eq(0), randomSuffix(rng, keys[2])},
				Action:   "act",
				Tenant:   uint32(tn),
			}
			if err := tbl.Insert(r); err != nil {
				t.Fatal(err)
			}
			live = append(live, r)
		}
	}
	// Remove every third tenant.
	for tn := 3; tn <= 20; tn += 3 {
		if freed := tbl.DeleteTenant(uint32(tn)); freed != 10 {
			t.Fatalf("tenant %d: freed %d rules, want 10", tn, freed)
		}
		kept := live[:0]
		for _, r := range live {
			if r.Tenant != uint32(tn) {
				kept = append(kept, r)
			}
		}
		live = kept
	}
	for probe := 0; probe < 500; probe++ {
		p := packet.NewBuilder().
			WithTenant(uint32(1+rng.Intn(20))).
			WithIPv4(rng.Uint32(), rng.Uint32()).
			Build()
		got := tbl.Lookup(p)
		want := refLookup(keys, live, p)
		if got != want {
			t.Fatalf("probe %d: lookup = %+v, reference = %+v", probe, got, want)
		}
	}
}

// TestInsertRejectsDuplicateExactKey is the regression test for the
// duplicate-shadowing bug: inserting a second rule with an identical exact
// key used to silently overwrite the index entry while still appending to
// the rule list, leaking capacity and resurrecting the shadowed rule when
// DeleteTenant rebuilt the index.
func TestInsertRejectsDuplicateExactKey(t *testing.T) {
	keys := []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldDstPort, Kind: MatchExact},
	}
	tbl := NewTable("dup", keys, 10)
	tbl.RegisterAction("a", func(ctx *Context, p *packet.Packet, params []uint64) {})
	first := &Rule{Matches: []Match{Eq(1), Eq(80)}, Action: "a", Tenant: 1}
	if err := tbl.Insert(first); err != nil {
		t.Fatal(err)
	}
	dup := &Rule{Matches: []Match{Eq(1), Eq(80)}, Action: "a", Tenant: 2}
	if err := tbl.Insert(dup); err == nil {
		t.Fatal("duplicate exact key accepted")
	}
	if tbl.Used() != 1 {
		t.Fatalf("used = %d after rejected insert, want 1 (capacity leak)", tbl.Used())
	}
	// A different tenant's departure must not resurrect or disturb the rule.
	tbl.DeleteTenant(2)
	p := packet.NewBuilder().WithTenant(1).WithIPv4(1, 2).WithTCP(9999, 80).Build()
	if got := tbl.Lookup(p); got != first {
		t.Fatalf("lookup after unrelated delete = %+v, want original rule", got)
	}
	// Distinct keys still insert fine.
	if err := tbl.Insert(&Rule{Matches: []Match{Eq(1), Eq(443)}, Action: "a", Tenant: 1}); err != nil {
		t.Fatal(err)
	}
}

// TestHotPathZeroAlloc asserts the per-packet path performs no heap
// allocations: sharded lookup, exact lookup, and a full pipeline traversal.
func TestHotPathZeroAlloc(t *testing.T) {
	tbl := shardedTable(t, 64, 8)
	p := packet.NewBuilder().
		WithTenant(64).
		WithIPv4(packet.IPv4Addr(10, 0, 0, 7), packet.IPv4Addr(10, 0, 0, 1)).
		WithTCP(1234, 80).
		Build()
	if n := testing.AllocsPerRun(200, func() { tbl.Lookup(p) }); n != 0 {
		t.Errorf("sharded Lookup allocates %.1f per op, want 0", n)
	}

	exact := NewTable("exact", []Key{
		{Field: FieldTenantID, Kind: MatchExact},
		{Field: FieldDstPort, Kind: MatchExact},
	}, 8)
	exact.RegisterAction("a", func(ctx *Context, p *packet.Packet, params []uint64) {})
	if err := exact.Insert(&Rule{Matches: []Match{Eq(64), Eq(80)}, Action: "a"}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() { exact.Lookup(p) }); n != 0 {
		t.Errorf("exact Lookup allocates %.1f per op, want 0", n)
	}

	pl, pp := benchPipeline(t, 64)
	if n := testing.AllocsPerRun(200, func() {
		pp.Meta.Pass = 0
		pp.Meta.Recirculate = false
		pl.Process(pp, 0)
	}); n != 0 {
		t.Errorf("Process allocates %.1f per op, want 0", n)
	}
	var ctx Context
	if n := testing.AllocsPerRun(200, func() {
		pp.Meta.Pass = 0
		pp.Meta.Recirculate = false
		pl.ProcessCtx(pp, 0, &ctx)
	}); n != 0 {
		t.Errorf("ProcessCtx allocates %.1f per op, want 0", n)
	}
}
