package vswitch

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"sfp/internal/nf"
)

// batchChain is a one-pass TC→FW chain sized for fig3Switch.
func batchChain(tenant uint32, gbps float64) (*SFC, []Placement) {
	sfc := &SFC{Tenant: tenant, BandwidthGbps: gbps, NFs: []*nf.Config{classAll(1), permitAll()}}
	pls := []Placement{
		{NFIndex: 0, Type: nf.TrafficClassifier, Stage: 0, Pass: 0},
		{NFIndex: 1, Type: nf.Firewall, Stage: 1, Pass: 0},
	}
	return sfc, pls
}

func TestAllocateBatchMatchesSequential(t *testing.T) {
	seq := fig3Switch(t)
	bat := fig3Switch(t)

	var items []BatchItem
	for tenant := uint32(1); tenant <= 5; tenant++ {
		sfc, pls := batchChain(tenant, 10)
		items = append(items, BatchItem{SFC: sfc, Placements: pls})
		sfcSeq, plsSeq := batchChain(tenant, 10)
		if _, err := seq.AllocateAt(sfcSeq, plsSeq); err != nil {
			t.Fatalf("sequential tenant %d: %v", tenant, err)
		}
	}
	allocs, err := bat.AllocateBatch(items)
	if err != nil {
		t.Fatalf("batch: %v", err)
	}
	if len(allocs) != 5 {
		t.Fatalf("got %d allocations, want 5", len(allocs))
	}
	if seq.Tenants() != bat.Tenants() {
		t.Errorf("tenants: seq %d, batch %d", seq.Tenants(), bat.Tenants())
	}
	if seq.BandwidthUsed() != bat.BandwidthUsed() {
		t.Errorf("bandwidth: seq %v, batch %v", seq.BandwidthUsed(), bat.BandwidthUsed())
	}
	if seq.Pipe.EntriesUsed() != bat.Pipe.EntriesUsed() {
		t.Errorf("entries: seq %d, batch %d", seq.Pipe.EntriesUsed(), bat.Pipe.EntriesUsed())
	}
	for tenant := uint32(1); tenant <= 5; tenant++ {
		sa, ba := seq.Allocations(tenant), bat.Allocations(tenant)
		if sa == nil || ba == nil {
			t.Fatalf("tenant %d missing: seq=%v batch=%v", tenant, sa, ba)
		}
		if sa.Passes != ba.Passes || len(sa.Placements) != len(ba.Placements) {
			t.Errorf("tenant %d: seq passes=%d/%d pls, batch passes=%d/%d pls",
				tenant, sa.Passes, len(sa.Placements), ba.Passes, len(ba.Placements))
		}
	}
}

func TestAllocateBatchAllOrNothing(t *testing.T) {
	v := fig3Switch(t)
	baseEntries := v.Pipe.EntriesUsed()

	// Two admissible items, then one whose bandwidth exceeds the switch.
	s1, p1 := batchChain(1, 10)
	s2, p2 := batchChain(2, 10)
	s3, p3 := batchChain(3, 100000)
	_, err := v.AllocateBatch([]BatchItem{{s1, p1}, {s2, p2}, {s3, p3}})
	if err == nil {
		t.Fatal("oversized batch accepted")
	}
	var be *BatchError
	if !errors.As(err, &be) {
		t.Fatalf("error is %T, want *BatchError: %v", err, err)
	}
	if be.Index != 2 || be.Tenant != 3 {
		t.Errorf("failure attributed to item %d tenant %d, want item 2 tenant 3", be.Index, be.Tenant)
	}
	if len(be.Applied) != 2 || be.Applied[0] != 1 || be.Applied[1] != 2 {
		t.Errorf("Applied = %v, want [1 2]", be.Applied)
	}
	// The switch is exactly as before the batch.
	if v.Tenants() != 0 {
		t.Errorf("%d tenants left after rollback", v.Tenants())
	}
	if v.BandwidthUsed() != 0 {
		t.Errorf("%v Gbps left after rollback", v.BandwidthUsed())
	}
	if got := v.Pipe.EntriesUsed(); got != baseEntries {
		t.Errorf("entries %d after rollback, want %d", got, baseEntries)
	}
	// And a clean batch still installs.
	s1, p1 = batchChain(1, 10)
	if _, err := v.AllocateBatch([]BatchItem{{s1, p1}}); err != nil {
		t.Fatalf("re-batch after rollback: %v", err)
	}
}

func TestAllocateBatchRejectsDuplicateTenant(t *testing.T) {
	v := fig3Switch(t)
	s1, p1 := batchChain(7, 10)
	s2, p2 := batchChain(7, 10)
	_, err := v.AllocateBatch([]BatchItem{{s1, p1}, {s2, p2}})
	if err == nil {
		t.Fatal("duplicate-tenant batch accepted")
	}
	if !strings.Contains(err.Error(), "both allocate tenant 7") {
		t.Errorf("unexpected error: %v", err)
	}
	if v.Tenants() != 0 {
		t.Errorf("%d tenants installed by rejected batch", v.Tenants())
	}
}

// TestAllocateBatchSharedCacheConsistency exercises the batch path against
// a pipeline that already hosts tenants, ensuring the memoized physical-NF
// resolution resolves to the same tables sequential allocation uses.
func TestAllocateBatchAfterExistingTenants(t *testing.T) {
	v := fig3Switch(t)
	s0, p0 := batchChain(100, 5)
	if _, err := v.AllocateAt(s0, p0); err != nil {
		t.Fatal(err)
	}
	var items []BatchItem
	for tenant := uint32(1); tenant <= 3; tenant++ {
		s, p := batchChain(tenant, 5)
		items = append(items, BatchItem{SFC: s, Placements: p})
	}
	if _, err := v.AllocateBatch(items); err != nil {
		t.Fatal(err)
	}
	if v.Tenants() != 4 {
		t.Fatalf("tenants = %d, want 4", v.Tenants())
	}
	// Every tenant drains cleanly — placements referenced live tables.
	for _, tenant := range []uint32{100, 1, 2, 3} {
		if err := v.Deallocate(tenant); err != nil {
			t.Errorf("deallocate %d: %v", tenant, err)
		}
	}
}

// fiveTenants installs tenants 1..5 with distinct bandwidths, so the order
// bandwidth is released in shows in the float sum.
func fiveTenants(t *testing.T) *VSwitch {
	t.Helper()
	v := fig3Switch(t)
	for tenant := uint32(1); tenant <= 5; tenant++ {
		sfc, pls := batchChain(tenant, 0.1*float64(tenant)+1.7)
		if _, err := v.AllocateAt(sfc, pls); err != nil {
			t.Fatalf("tenant %d: %v", tenant, err)
		}
	}
	return v
}

func TestDeallocateBatchMatchesSequential(t *testing.T) {
	victims := []uint32{4, 1, 3}
	seq := fiveTenants(t)
	for _, tenant := range victims {
		if err := seq.Deallocate(tenant); err != nil {
			t.Fatalf("sequential tenant %d: %v", tenant, err)
		}
	}
	bat := fiveTenants(t)
	if err := bat.DeallocateBatch(victims); err != nil {
		t.Fatalf("batch: %v", err)
	}
	if !reflect.DeepEqual(bat.ExportState(), seq.ExportState()) {
		t.Error("switch states diverge between DeallocateBatch and sequential Deallocate")
	}
	if bat.BandwidthUsed() != seq.BandwidthUsed() {
		t.Errorf("bandwidth: seq %v, batch %v", seq.BandwidthUsed(), bat.BandwidthUsed())
	}
	if bat.Pipe.EntriesUsed() != seq.Pipe.EntriesUsed() {
		t.Errorf("entries: seq %d, batch %d", seq.Pipe.EntriesUsed(), bat.Pipe.EntriesUsed())
	}
	if bat.Tenants() != 2 {
		t.Errorf("tenants = %d, want 2", bat.Tenants())
	}
}

func TestDeallocateBatchAllOrNothing(t *testing.T) {
	v := fiveTenants(t)
	before := v.ExportState()
	bw, entries := v.BandwidthUsed(), v.Pipe.EntriesUsed()
	for _, batch := range [][]uint32{
		{2, 99},    // unknown tenant after a valid one
		{2, 3, 2},  // duplicated tenant
		{99},       // unknown tenant alone
		{5, 4, 42}, // unknown tenant last
	} {
		if err := v.DeallocateBatch(batch); err == nil {
			t.Fatalf("batch %v accepted", batch)
		}
		if !reflect.DeepEqual(v.ExportState(), before) {
			t.Fatalf("rejected batch %v mutated the switch", batch)
		}
		if v.BandwidthUsed() != bw || v.Pipe.EntriesUsed() != entries {
			t.Fatalf("rejected batch %v changed bandwidth %v -> %v or entries %d -> %d",
				batch, bw, v.BandwidthUsed(), entries, v.Pipe.EntriesUsed())
		}
	}
	// And a valid batch still drains every tenant.
	if err := v.DeallocateBatch([]uint32{5, 4, 3, 2, 1}); err != nil {
		t.Fatal(err)
	}
	if v.Tenants() != 0 || v.BandwidthUsed() != 0 {
		t.Errorf("%d tenants, %v Gbps left", v.Tenants(), v.BandwidthUsed())
	}
}
