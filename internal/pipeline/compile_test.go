package pipeline

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"sfp/internal/packet"
)

// The tests in this file prove the compiled pipeline (compile.go) is
// bit-identical to the interpreter (Process/ProcessCtx): same Result fields,
// same recirculation passes, same register side effects, same telemetry
// counts — on golden traces, on randomized configs × packet streams, and
// under rule churn mid-stream.

// equivActions registers the test action vocabulary on a table. The bodies
// exercise every observable channel: packet metadata, drop, recirculation
// (via Rule.Rec), and register reads/writes that depend on ctx.NowNs and
// ctx.StageIndex so any divergence in context plumbing shows up in state.
func equivActions(t *Table) {
	t.RegisterAction("set_port", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.EgressPort = uint16(params[0])
	})
	t.RegisterAction("mark", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.ClassID = uint16(params[0])
	})
	t.RegisterAction("drop", func(ctx *Context, p *packet.Packet, params []uint64) {
		p.Meta.Drop = true
	})
	t.RegisterAction("noop", func(ctx *Context, p *packet.Packet, params []uint64) {})
	t.RegisterAction("count", func(ctx *Context, p *packet.Packet, params []uint64) {
		ctx.Regs.Add("ctr", int(params[0]%8), 1)
	})
	t.RegisterAction("stamp", func(ctx *Context, p *packet.Packet, params []uint64) {
		ctx.Regs.Write("ctr", int(params[0]%8), int64(ctx.NowNs)+int64(ctx.StageIndex))
	})
}

var equivActionNames = []string{"set_port", "mark", "noop", "count", "stamp"}

// buildEquivPipeline deterministically builds a random pipeline from the
// seed: random table shapes (exact-indexed, tenant-sharded, generic scan)
// spread over the stages, random rules over a small value domain so random
// packets actually hit, a sprinkling of REC rules and rare drop rules.
// Calling it twice with the same seed yields two independent but identical
// pipelines.
func buildEquivPipeline(seed int64, cfg Config) *Pipeline {
	rng := rand.New(rand.NewSource(seed))
	pl := New(cfg)
	for si, st := range pl.Stages {
		st.Regs.Alloc("ctr", 8)
		nTables := 1 + rng.Intn(2)
		for ti := 0; ti < nTables; ti++ {
			name := fmt.Sprintf("s%d.t%d", si, ti)
			var keys []Key
			switch rng.Intn(3) {
			case 0: // all-exact: FNV hash index
				keys = []Key{{FieldTenantID, MatchExact}, {FieldDstPort, MatchExact}}
			case 1: // tenant-sharded: exact (tenant, pass) prefix + ternary
				keys = []Key{{FieldTenantID, MatchExact}, {FieldPass, MatchExact}, {FieldIPv4Dst, MatchTernary}}
			default: // generic scan: LPM + range
				keys = []Key{{FieldIPv4Dst, MatchLPM}, {FieldDstPort, MatchRange}}
			}
			tbl := NewTable(name, keys, 64)
			equivActions(tbl)
			if rng.Intn(2) == 0 {
				tbl.SetDefault("noop")
			}
			nRules := 2 + rng.Intn(6)
			for ri := 0; ri < nRules; ri++ {
				action := equivActionNames[rng.Intn(len(equivActionNames))]
				if rng.Intn(16) == 0 {
					action = "drop"
				}
				r := &Rule{
					Priority: rng.Intn(4),
					Action:   action,
					Params:   []uint64{uint64(rng.Intn(64))},
					Tenant:   uint32(1 + rng.Intn(4)),
					// REC only on late stages so recirculation decisions
					// resemble the vswitch's pass-tail steering.
					Rec: si == len(pl.Stages)-1 && rng.Intn(3) == 0,
				}
				for _, k := range keys {
					switch k.Kind {
					case MatchExact:
						switch k.Field {
						case FieldTenantID:
							r.Matches = append(r.Matches, Eq(uint64(r.Tenant)))
						case FieldPass:
							r.Matches = append(r.Matches, Eq(uint64(rng.Intn(3))))
						default:
							r.Matches = append(r.Matches, Eq(uint64(1+rng.Intn(8))))
						}
					case MatchTernary:
						if rng.Intn(3) == 0 {
							r.Matches = append(r.Matches, Wildcard())
						} else {
							r.Matches = append(r.Matches, Masked(uint64(packet.IPv4Addr(10, 0, 0, byte(rng.Intn(8)))), 0xffffffff))
						}
					case MatchLPM:
						r.Matches = append(r.Matches, Prefix(uint64(packet.IPv4Addr(10, 0, 0, 0)), 8+rng.Intn(17)))
					case MatchRange:
						lo := uint64(rng.Intn(8))
						r.Matches = append(r.Matches, Between(lo, lo+uint64(rng.Intn(8))))
					}
				}
				tbl.Insert(r) // duplicate exacts rejected; identical on both twins
			}
			if st.AddTable(tbl) != nil {
				break
			}
		}
	}
	return pl
}

// genEquivPackets deterministically draws n packets over the small value
// domain the random rules cover.
func genEquivPackets(seed int64, n int) []*packet.Packet {
	rng := rand.New(rand.NewSource(seed))
	pkts := make([]*packet.Packet, n)
	for i := range pkts {
		pkts[i] = packet.NewBuilder().
			WithTenant(uint32(1+rng.Intn(4))).
			WithIPv4(packet.IPv4Addr(10, 0, 0, byte(rng.Intn(8))), packet.IPv4Addr(10, 0, 0, byte(rng.Intn(8)))).
			WithTCP(uint16(1000+rng.Intn(8)), uint16(1+rng.Intn(8))).
			Build()
	}
	return pkts
}

// comparePipelines asserts the two twins agree on every observable:
// telemetry counters (processed/recirculated, per-table hits/misses) and
// register file contents.
func comparePipelines(t *testing.T, ref, got *Pipeline) {
	t.Helper()
	if ref.Processed() != got.Processed() {
		t.Errorf("processed: interpreter %d, compiled %d", ref.Processed(), got.Processed())
	}
	if ref.Recirculated() != got.Recirculated() {
		t.Errorf("recirculated: interpreter %d, compiled %d", ref.Recirculated(), got.Recirculated())
	}
	for si := range ref.Stages {
		sa, sb := ref.Stages[si], got.Stages[si]
		if !reflect.DeepEqual(sa.Regs.arrays, sb.Regs.arrays) {
			t.Errorf("stage %d: register files diverge: %v vs %v", si, sa.Regs.arrays, sb.Regs.arrays)
		}
		for ti := range sa.Tables {
			ta, tb := sa.Tables[ti], sb.Tables[ti]
			if ta.Hits() != tb.Hits() || ta.Misses() != tb.Misses() {
				t.Errorf("table %s: hits/misses %d/%d vs %d/%d",
					ta.Name, ta.Hits(), ta.Misses(), tb.Hits(), tb.Misses())
			}
		}
	}
}

// runEquivStream replays the same packet stream through the interpreter
// (ref) and the compiled twin (comp), asserting bit-identical results and
// packet metadata per packet.
func runEquivStream(t *testing.T, ref *Pipeline, comp *Compiled, seed int64, n int) {
	t.Helper()
	pktsA := genEquivPackets(seed, n)
	pktsB := genEquivPackets(seed, n)
	var ctx Context
	for i := 0; i < n; i++ {
		now := float64(i) * 100
		ra := ref.ProcessCtx(pktsA[i], now, &ctx)
		rb := comp.Process(pktsB[i], now)
		if ra != rb {
			t.Fatalf("packet %d: Result diverges:\ninterpreter %+v\ncompiled    %+v", i, ra, rb)
		}
		if pktsA[i].Meta != pktsB[i].Meta {
			t.Fatalf("packet %d: Meta diverges:\ninterpreter %+v\ncompiled    %+v", i, pktsA[i].Meta, pktsB[i].Meta)
		}
	}
}

// TestCompiledGoldenTrace pins the compiled path to a hand-built pipeline
// exercising recirculation, drops, defaults, and registers under both
// DefaultConfig and TofinoConfig.
func TestCompiledGoldenTrace(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"default", DefaultConfig()}, {"tofino", TofinoConfig()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Pipeline {
				pl := New(tc.cfg)
				last := len(pl.Stages) - 1

				fw := NewTable("fw", []Key{{FieldTenantID, MatchExact}, {FieldDstPort, MatchExact}}, 16)
				equivActions(fw)
				fw.SetDefault("noop")
				mustInsert(t, fw, &Rule{Matches: []Match{Eq(1), Eq(80)}, Action: "set_port", Params: []uint64{3}})
				mustInsert(t, fw, &Rule{Matches: []Match{Eq(2), Eq(80)}, Action: "drop", Params: []uint64{0}})
				pl.Stages[0].AddTable(fw)

				pl.Stages[1].Regs.Alloc("ctr", 8)
				cnt := NewTable("cnt", []Key{{FieldIPv4Dst, MatchLPM}}, 16)
				equivActions(cnt)
				mustInsert(t, cnt, &Rule{Matches: []Match{Prefix(uint64(packet.IPv4Addr(10, 0, 0, 0)), 8)}, Action: "count", Params: []uint64{2}})
				pl.Stages[1].AddTable(cnt)

				tail := NewTable("tail", []Key{{FieldTenantID, MatchExact}, {FieldPass, MatchExact}}, 16)
				equivActions(tail)
				// Tenant 1 folds: pass 0 recirculates, pass 1 terminates.
				mustInsert(t, tail, &Rule{Matches: []Match{Eq(1), Eq(0)}, Action: "noop", Params: []uint64{0}, Rec: true})
				mustInsert(t, tail, &Rule{Matches: []Match{Eq(1), Eq(1)}, Action: "mark", Params: []uint64{7}})
				pl.Stages[last].AddTable(tail)
				return pl
			}
			ref, twin := build(), build()
			comp := twin.Compile()

			mk := func(tenant uint32, dport uint16) *packet.Packet {
				return packet.NewBuilder().WithTenant(tenant).
					WithIPv4(packet.IPv4Addr(10, 1, 2, 3), packet.IPv4Addr(10, 0, 0, 5)).
					WithTCP(4000, dport).Build()
			}
			var ctx Context
			for i, tcase := range []struct {
				tenant uint32
				dport  uint16
			}{{1, 80}, {2, 80}, {3, 443}, {1, 22}} {
				pa, pb := mk(tcase.tenant, tcase.dport), mk(tcase.tenant, tcase.dport)
				ra := ref.ProcessCtx(pa, float64(i)*50, &ctx)
				rb := comp.Process(pb, float64(i)*50)
				if ra != rb {
					t.Fatalf("case %d: Result %+v vs %+v", i, ra, rb)
				}
				if pa.Meta != pb.Meta {
					t.Fatalf("case %d: Meta %+v vs %+v", i, pa.Meta, pb.Meta)
				}
			}
			// Pin the interesting facts so the trace stays golden: both
			// tenant-1 packets recirculated once each, tenant 2 dropped.
			if ref.Recirculated() != 2 {
				t.Errorf("recirculated = %d, want 2", ref.Recirculated())
			}
			comparePipelines(t, ref, twin)
		})
	}
}

// TestCompiledEquivalenceRandom is the property test: across random seeds,
// random pipeline structures × random packet streams behave bit-identically
// under interpreter and compiled execution.
func TestCompiledEquivalenceRandom(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := DefaultConfig()
		cfg.Stages = 2 + int(seed%4)
		cfg.MaxPasses = 1 + int(seed%4)
		ref := buildEquivPipeline(seed, cfg)
		twin := buildEquivPipeline(seed, cfg)
		comp := twin.Compile()
		runEquivStream(t, ref, comp, seed*7+1, 300)
		comparePipelines(t, ref, twin)
	}
}

// TestCompiledEquivalenceChurn interleaves rule churn (Insert and
// DeleteTenant, applied identically to both twins) with packet processing:
// a Compiled must track table contents live.
func TestCompiledEquivalenceChurn(t *testing.T) {
	seed := int64(42)
	cfg := DefaultConfig()
	cfg.Stages = 4
	ref := buildEquivPipeline(seed, cfg)
	twin := buildEquivPipeline(seed, cfg)
	comp := twin.Compile()

	churn := func(round int64) {
		for _, pl := range []*Pipeline{ref, twin} {
			// Delete one tenant's rules everywhere, then add a fresh
			// exact rule to every all-exact table.
			for _, st := range pl.Stages {
				for _, tbl := range st.Tables {
					tbl.DeleteTenant(uint32(1 + round%4))
					if len(tbl.Keys) == 2 && tbl.Keys[1].Field == FieldDstPort {
						tbl.Insert(&Rule{
							Matches: []Match{Eq(uint64(1 + round%4)), Eq(uint64(1 + round%8))},
							Action:  "set_port", Params: []uint64{uint64(10 + round)},
							Tenant: uint32(1 + round%4),
						})
					}
				}
			}
		}
	}
	for round := int64(0); round < 6; round++ {
		runEquivStream(t, ref, comp, seed+round, 100)
		churn(round)
	}
	runEquivStream(t, ref, comp, seed+99, 100)
	comparePipelines(t, ref, twin)
}

// TestCompiledBatchMatchesSingle proves the batched entry point (local
// scratch telemetry, one flush) equals per-packet compiled processing:
// identical Results and identical final counters.
func TestCompiledBatchMatchesSingle(t *testing.T) {
	seed := int64(7)
	cfg := DefaultConfig()
	cfg.Stages = 3
	single := buildEquivPipeline(seed, cfg)
	batched := buildEquivPipeline(seed, cfg)
	cs, cb := single.Compile(), batched.Compile()

	const n, chunk = 256, 16
	pktsA, pktsB := genEquivPackets(seed, n), genEquivPackets(seed, n)
	itemsB := make([]Item, n)
	for i := range itemsB {
		itemsB[i] = Item{Pkt: pktsB[i], NowNs: float64(i) * 100}
	}

	var ctx Context
	resA := make([]Result, n)
	for i := range pktsA {
		resA[i] = cs.ProcessCtx(pktsA[i], float64(i)*100, &ctx)
	}
	scratch := cb.NewScratch()
	var resB []Result
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		resB = cb.ProcessBatch(itemsB[lo:hi], resB, scratch)
	}
	for i := range resA {
		if resA[i] != resB[i] {
			t.Fatalf("packet %d: single %+v vs batch %+v", i, resA[i], resB[i])
		}
		if pktsA[i].Meta != pktsB[i].Meta {
			t.Fatalf("packet %d: Meta diverges", i)
		}
	}
	comparePipelines(t, single, batched)
}

// TestCompiledBatchNilScratch covers the convenience path.
func TestCompiledBatchNilScratch(t *testing.T) {
	pl := buildEquivPipeline(3, DefaultConfig())
	comp := pl.Compile()
	pkts := genEquivPackets(3, 8)
	items := make([]Item, len(pkts))
	for i := range items {
		items[i] = Item{Pkt: pkts[i], NowNs: float64(i)}
	}
	res := comp.ProcessBatch(items, nil, nil)
	if len(res) != len(items) {
		t.Fatalf("got %d results, want %d", len(res), len(items))
	}
	if pl.Processed() != uint64(len(items)) {
		t.Fatalf("processed = %d, want %d", pl.Processed(), len(items))
	}
}

// TestCompiledProcessZeroAlloc pins the hot-path allocation budget: the
// compiled single-packet and batched paths must not allocate.
func TestCompiledProcessZeroAlloc(t *testing.T) {
	pl := buildEquivPipeline(11, DefaultConfig())
	comp := pl.Compile()
	p := genEquivPackets(11, 1)[0]
	var ctx Context
	if n := testing.AllocsPerRun(200, func() {
		p.Meta.Pass = 0
		comp.ProcessCtx(p, 0, &ctx)
	}); n != 0 {
		t.Errorf("compiled ProcessCtx allocates %v/op, want 0", n)
	}
	items := []Item{{Pkt: p, NowNs: 0}}
	out := make([]Result, 0, 1)
	s := comp.NewScratch()
	if n := testing.AllocsPerRun(200, func() {
		p.Meta.Pass = 0
		out = comp.ProcessBatch(items, out[:0], s)
	}); n != 0 {
		t.Errorf("compiled ProcessBatch allocates %v/op, want 0", n)
	}
}
