package core

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"

	"math/rand"
)

// provisioned returns a non-durable controller with a few placed tenants.
func provisioned(t testing.TB) *Controller {
	t.Helper()
	c := New(testOptions(AlgoGreedy))
	if _, err := c.Provision(smallBatch(1, 4)); err != nil {
		t.Fatal(err)
	}
	if len(c.PlacedTenants()) == 0 {
		t.Fatal("nothing placed")
	}
	return c
}

// TestReconcileCleanOnHealthy: a healthy controller reports no drift.
func TestReconcileCleanOnHealthy(t *testing.T) {
	c := provisioned(t)
	rep, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("healthy switch reported drift: %+v", rep)
	}
}

// TestReconcileReinstallsMissing: rules deleted behind the controller's
// back come back.
func TestReconcileReinstallsMissing(t *testing.T) {
	c := provisioned(t)
	want := c.VSwitch().ExportState()
	victim := c.PlacedTenants()[0]
	if err := c.VSwitch().Deallocate(victim); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Reinstalled) != 1 || rep.Reinstalled[0] != victim {
		t.Fatalf("reinstalled %v, want [%d]", rep.Reinstalled, victim)
	}
	if !reflect.DeepEqual(c.VSwitch().ExportState(), want) {
		t.Fatal("switch state not restored")
	}
}

// TestReconcileRemovesOrphan: an allocation with no committed placement
// (e.g. residue of an uncommitted install) is deallocated.
func TestReconcileRemovesOrphan(t *testing.T) {
	c := provisioned(t)
	victim := c.PlacedTenants()[0]
	alloc := c.VSwitch().Allocations(victim)
	spec, placements := alloc.Spec, alloc.Placements
	if err := c.Depart(victim); err != nil {
		t.Fatal(err)
	}
	want := c.VSwitch().ExportState()
	// Sneak the departed tenant's rules back in behind the controller.
	if _, err := c.VSwitch().AllocateAt(spec, placements); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.OrphansRemoved) != 1 || rep.OrphansRemoved[0] != victim {
		t.Fatalf("orphans removed %v, want [%d]", rep.OrphansRemoved, victim)
	}
	if !reflect.DeepEqual(c.VSwitch().ExportState(), want) {
		t.Fatal("switch state not restored")
	}
}

// TestReconcileRemovesStrayPhysical: a physical NF outside the intended
// layout is deleted once its table is empty.
func TestReconcileRemovesStrayPhysical(t *testing.T) {
	c := provisioned(t)
	in, a, _, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Find a (type, stage) cell the layout does not use.
	stray := -1
	var strayType nf.Type
	for i := 1; i <= in.NumTypes && stray < 0; i++ {
		for s := 0; s < in.Switch.Stages; s++ {
			if !a.X[i-1][s] {
				stray, strayType = s, nf.Type(i)
				break
			}
		}
	}
	if stray < 0 {
		t.Skip("layout uses every cell")
	}
	if _, err := c.VSwitch().InstallPhysicalNF(stray, strayType, 100); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Reconcile()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.PhysicalRemoved) != 1 || rep.PhysicalRemoved[0].Stage != stray || rep.PhysicalRemoved[0].Type != strayType {
		t.Fatalf("physical removed %v, want [%v@%d]", rep.PhysicalRemoved, strayType, stray)
	}
	if c.VSwitch().FindPhysical(stray, strayType) != nil {
		t.Fatal("stray physical NF survived reconcile")
	}
}

// benchFleet builds a large tenant fleet for the recovery benchmarks.
func benchFleet(n int) []*vswitch.SFC {
	rng := rand.New(rand.NewSource(7))
	chains := traffic.GenChains(rng, n, traffic.ChainParams{
		NumTypes: nf.TypeCount, MeanLen: 3, RuleMin: 2, RuleMax: 6,
	})
	out := make([]*vswitch.SFC, 0, n)
	for _, ch := range chains {
		ch.BandwidthGbps = 0.05
		out = append(out, traffic.ToSFC(rng, ch, 6))
	}
	return out
}

func benchOptions() Options {
	return Options{
		Pipeline:    pipeline.DefaultConfig(),
		Consolidate: true,
		Algorithm:   AlgoGreedy,
		Seed:        1,
	}
}

// BenchmarkRecover1k measures journal replay + planner rebuild for a
// 1000-tenant controller (the cold half of crash recovery).
func BenchmarkRecover1k(b *testing.B) {
	opts := benchOptions()
	dir := b.TempDir()
	c, err := Recover(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Provision(benchFleet(1000)); err != nil {
		b.Fatal(err)
	}
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Recover(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !r.Provisioned() {
			b.Fatal("recovered controller not provisioned")
		}
		r.Close()
	}
}

// BenchmarkReconcile1k measures the cold-restore reconcile: recovering
// intent for 1000 tenants and re-installing every placed chain into an
// empty switch.
func BenchmarkReconcile1k(b *testing.B) {
	opts := benchOptions()
	dir := b.TempDir()
	c, err := Recover(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Provision(benchFleet(1000)); err != nil {
		b.Fatal(err)
	}
	placed := len(c.PlacedTenants())
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := Recover(dir, opts)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := r.Reconcile()
		if err != nil {
			b.Fatal(err)
		}
		if len(rep.Reinstalled) != placed {
			b.Fatalf("reinstalled %d, want %d", len(rep.Reinstalled), placed)
		}
		r.Close()
	}
}

// fatTenant is one stack-fat-1k-shaped tenant: 2-4 NFs of 16-48 rules and
// 1-4 users at 50 Mbit/s each.
func fatTenant(rng *rand.Rand, id uint32) *vswitch.SFC {
	s := &vswitch.SFC{Tenant: id, BandwidthGbps: float64(1+rng.Intn(4)) * 0.05}
	for n := 2 + rng.Intn(3); n > 0; n-- {
		t := nf.Type(1 + rng.Intn(nf.TypeCount))
		s.NFs = append(s.NFs, nf.Synthesize(t, 16+rng.Intn(33), rng))
	}
	return s
}

// BenchmarkRecoverFat1k measures RecoverSwitch on the journal of a
// 1000-tenant controller of rule-heavy tenants: a snapshot of the
// provisioned fleet followed by 300 churn transactions (one three-tenant
// ArriveMany or DepartMany each), the shape stack-fat-1k's crash leaves. It
// reports the journal bytes each churn transaction appended.
func BenchmarkRecoverFat1k(b *testing.B) {
	const live, txns = 1000, 300
	opts := benchOptions()
	// The pipeline stack-fat-1k sizes for 1000 tenants: memory for the
	// worst-case shape with triple headroom, a backplane that binds.
	opts.Pipeline.BlocksPerStage = 108
	opts.Pipeline.CapacityGbps = 0.14*live + 0.02
	rng := rand.New(rand.NewSource(11))
	next := uint32(0)
	batch := func(n int) []*vswitch.SFC {
		out := make([]*vswitch.SFC, n)
		for i := range out {
			next++
			out[i] = fatTenant(rng, next)
		}
		return out
	}
	dir := b.TempDir()
	c, err := Recover(dir, opts)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := c.Provision(batch(live)); err != nil {
		b.Fatal(err)
	}
	if err := c.snapshotNow(); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < txns; i++ {
		if i%2 == 0 {
			if _, err := c.ArriveMany(batch(3)); err != nil {
				b.Fatal(err)
			}
			continue
		}
		known := sortedTenants(c.sfcs)
		rng.Shuffle(len(known), func(i, j int) { known[i], known[j] = known[j], known[i] })
		if err := c.DepartMany(known[:3]); err != nil {
			b.Fatal(err)
		}
	}
	placed := len(c.PlacedTenants())
	if err := c.Close(); err != nil {
		b.Fatal(err)
	}
	tail, err := filepath.Glob(filepath.Join(dir, "wal-*"))
	if err != nil || len(tail) != 1 {
		b.Fatalf("journal files %v: %v", tail, err)
	}
	fi, err := os.Stat(tail[0])
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := RecoverSwitch(dir, nil, opts)
		if err != nil {
			b.Fatal(err)
		}
		if got := len(r.PlacedTenants()); got != placed {
			b.Fatalf("recovered %d placed tenants, want %d", got, placed)
		}
		r.Close()
	}
	b.ReportMetric(float64(fi.Size())/txns, "journal-B/txn")
}
