package core

import (
	"math/rand"
	"reflect"
	"testing"

	"sfp/internal/nf"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
)

// checkCoreLedgers asserts the controller's incremental bookkeeping equals
// a recount: unrealized is every planner-deployed chain not on the switch,
// and need is ruleNeed over the placed chains.
func checkCoreLedgers(t *testing.T, c *Controller, where string) {
	t.Helper()
	in, a, _ := c.updater.Current()
	want := map[uint32]bool{}
	for _, e := range deployedEntries(in, a, c.placed) {
		want[e.Tenant] = true
	}
	if !reflect.DeepEqual(c.unrealized, want) {
		t.Fatalf("%s: unrealized %v, recount %v", where, sortedKeys(c.unrealized), sortedKeys(want))
	}
	placedOnly := a.Clone()
	for l, ch := range in.Chains {
		if !c.placed[uint32(ch.ID)] {
			for j := range placedOnly.Stages[l] {
				placedOnly.Stages[l][j] = -1
			}
		}
	}
	if got, want := c.need, ruleNeed(in, placedOnly); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: need ledger %v, recount %v", where, got, want)
	}
}

// TestUnrealizedAndNeedTrackRecount drives a greedy controller through
// arrivals, single and batched departures, an install the switch refuses
// (leaving an admitted chain stranded), its retry and a reconfiguration,
// checking the incremental bookkeeping against a recount after each.
func TestUnrealizedAndNeedTrackRecount(t *testing.T) {
	opts := testOptions(AlgoGreedy)
	opts.Pipeline.CapacityGbps = 40
	c := New(opts)
	if _, err := c.Provision([]*vswitch.SFC{tinyArrival(1, 10)}); err != nil {
		t.Fatal(err)
	}
	checkCoreLedgers(t, c, "provision")

	for i, batch := range [][]*vswitch.SFC{arrivalBatch(21, 3, 100), arrivalBatch(22, 2, 200)} {
		for _, s := range batch {
			s.BandwidthGbps = 1
		}
		if _, err := c.ArriveMany(batch); err != nil {
			t.Fatal(err)
		}
		checkCoreLedgers(t, c, "arrive "+string(rune('a'+i)))
	}
	placed := sortedKeys(c.placed) // tenant 1 first, then the arrivals
	if len(placed) < 4 {
		t.Fatalf("only %v placed", placed)
	}
	if err := c.Depart(placed[1]); err != nil {
		t.Fatal(err)
	}
	checkCoreLedgers(t, c, "depart")
	if err := c.DepartMany(placed[2:4]); err != nil {
		t.Fatal(err)
	}
	checkCoreLedgers(t, c, "departmany")

	// Tenant 2 waits: it does not fit the planner's backplane.
	if placed, err := c.Arrive(tinyArrival(2, 35)); err != nil || placed {
		t.Fatalf("oversized arrival placed=%v err=%v", placed, err)
	}
	checkCoreLedgers(t, c, "waiting arrival")
	// Free the planner's backplane, then let a rogue tenant take the
	// switch's behind its back: the next replan admits tenant 2 and the
	// batch, the install fails, the batch is withdrawn, tenant 2 strands.
	if err := c.Depart(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.VSwitch().Allocate(tinyArrival(999, 30)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ArriveMany([]*vswitch.SFC{tinyArrival(50, 0.5)}); err == nil {
		t.Fatal("install over the switch's backplane succeeded")
	}
	if !c.unrealized[2] || c.placed[2] {
		t.Fatalf("tenant 2 should be admitted but unrealized: unrealized=%v", sortedKeys(c.unrealized))
	}
	checkCoreLedgers(t, c, "failed install")
	if err := c.VSwitch().Deallocate(999); err != nil {
		t.Fatal(err)
	}
	newly, err := c.Replan()
	if err != nil || !reflect.DeepEqual(newly, []uint32{2}) {
		t.Fatalf("retry placed %v err=%v, want [2]", newly, err)
	}
	checkCoreLedgers(t, c, "retry")
	if newly, err := c.Replan(); err != nil || newly != nil {
		t.Fatalf("idle replan placed %v err=%v", newly, err)
	}

	if _, err := c.ReconfigureIfStale(100); err != nil {
		t.Fatal(err)
	}
	checkCoreLedgers(t, c, "reconfigure")
}

// TestLastReplanGreedy: a greedy controller's LastReplan describes its
// greedy replans, not a stale reconfiguration.
func TestLastReplanGreedy(t *testing.T) {
	c := New(testOptions(AlgoGreedy))
	if _, err := c.Provision(smallBatch(12, 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReconfigureIfStale(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ArriveMany(arrivalBatch(13, 2, 100)); err != nil {
		t.Fatal(err)
	}
	st := c.LastReplan()
	if st.FullRebuild || st.InModel != 2 || st.Admitted != 2 || st.Elapsed <= 0 {
		t.Fatalf("LastReplan after a greedy arrival of 2: %+v", st)
	}
}

// flatTenants is n small tenants from the seeded generator, IDs offset by
// base, on a switch with memory and backplane to spare.
func flatTenants(seed int64, n int, base uint32) []*vswitch.SFC {
	rng := rand.New(rand.NewSource(seed))
	chains := traffic.GenChains(rng, n, traffic.ChainParams{
		NumTypes: nf.TypeCount, MeanLen: 3, RuleMin: 2, RuleMax: 6,
	})
	out := make([]*vswitch.SFC, 0, n)
	for _, ch := range chains {
		ch.BandwidthGbps = 0.01
		s := traffic.ToSFC(rng, ch, 6)
		s.Tenant += base
		out = append(out, s)
	}
	return out
}

// TestArriveManyAllocsFlatInLive is the O(batch) admission gate: one fixed
// 10-tenant ArriveMany + DepartMany cycle allocates the same at 8k live
// tenants as at 1k. Allocation counts, unlike timings, repeat to the digit;
// any per-live-tenant pass on the admission path (a snapshot, a re-solve, a
// scan of every chain) adds thousands.
func TestArriveManyAllocsFlatInLive(t *testing.T) {
	opts := benchOptions()
	opts.Pipeline.BlocksPerStage = 200
	allocs := func(live int) float64 {
		c := New(opts)
		if _, err := c.Provision(flatTenants(3, live, 0)); err != nil {
			t.Fatal(err)
		}
		batch := flatTenants(4, 10, 1<<20)
		tenants := make([]uint32, len(batch))
		for i, s := range batch {
			tenants[i] = s.Tenant
		}
		cycle := func() {
			placed, err := c.ArriveMany(batch)
			if err != nil || len(placed) != len(batch) {
				t.Fatalf("%d live: placed %d of %d: %v", live, len(placed), len(batch), err)
			}
			if err := c.DepartMany(tenants); err != nil {
				t.Fatal(err)
			}
		}
		cycle() // warm the maps and slices a cycle grows once
		return testing.AllocsPerRun(20, cycle)
	}
	small, large := allocs(1000), allocs(8000)
	t.Logf("allocs per cycle: %.0f at 1k live, %.0f at 8k live", small, large)
	if large > small+50 {
		t.Fatalf("admission allocations grow with the live count: %.0f at 1k, %.0f at 8k", small, large)
	}
}
