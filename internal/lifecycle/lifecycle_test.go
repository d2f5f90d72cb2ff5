package lifecycle

import (
	"testing"

	"sfp/internal/core"
	"sfp/internal/pipeline"
)

// shrunk returns a fast config for unit tests: small population, few
// ticks, still enough churn to exercise every path.
func shrunk() Config {
	cfg := Smoke()
	cfg.TargetLive = 600
	cfg.FillBatch = 200
	cfg.WarmTicks = 2
	cfg.MeasureTicks = 8
	return cfg
}

// TestTraceDeterminism: a fixed seed reproduces the identical admission
// and departure trace — across runs, and across solver worker counts.
func TestTraceDeterminism(t *testing.T) {
	a, err := Run(shrunk())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(shrunk())
	if err != nil {
		t.Fatal(err)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, different traces: %x vs %x", a.TraceHash, b.TraceHash)
	}
	if a.Accepted != b.Accepted || a.Offered != b.Offered || a.LiveAtEnd != b.LiveAtEnd {
		t.Fatalf("same seed, different counters: %+v vs %+v", a, b)
	}

	workers := shrunk()
	workers.Workers = 4
	w, err := Run(workers)
	if err != nil {
		t.Fatal(err)
	}
	if w.TraceHash != a.TraceHash {
		t.Fatalf("worker count changed the trace: %x vs %x", w.TraceHash, a.TraceHash)
	}

	other := shrunk()
	other.Seed = 99
	o, err := Run(other)
	if err != nil {
		t.Fatal(err)
	}
	if o.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced the same trace hash")
	}
}

// TestLifecycleSmoke is the steady-state check: the population reaches
// and holds the target, the acceptance ratio stays high at Load = 1, and
// the journal the durable run leaves behind replays clean.
func TestLifecycleSmoke(t *testing.T) {
	cfg := shrunk()
	cfg.Dir = t.TempDir()
	cfg.SnapshotEvery = 8 // force several off-lock rotations during the run
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SteadyState {
		t.Fatalf("steady state not reached: mean live %.1f, target %d", rep.MeanLive, cfg.TargetLive)
	}
	if rep.AcceptanceRatio < 0.9 {
		t.Fatalf("acceptance ratio %.3f at load 1", rep.AcceptanceRatio)
	}
	if rep.CapRejected != 0 {
		t.Fatalf("capacity rejections at load 1: %d", rep.CapRejected)
	}
	if rep.Departed == 0 || rep.Accepted == 0 {
		t.Fatalf("no churn measured: %+v", rep)
	}

	// The run closed its controller; the journal must replay to exactly
	// the live population the report claims, with zero reconcile drift.
	r, err := core.Recover(cfg.Dir, cfg.ControllerOptions())
	if err != nil {
		t.Fatalf("journal replay: %v", err)
	}
	defer r.Close()
	if got := len(r.PlacedTenants()); got != rep.LiveAtEnd {
		t.Fatalf("recovered %d placed tenants, run ended with %d live", got, rep.LiveAtEnd)
	}
	if _, err := r.Reconcile(); err != nil {
		t.Fatal(err)
	}
	if rep2, err := r.Reconcile(); err != nil || !rep2.Clean() {
		t.Fatalf("drift after reconcile: %+v, %v", rep2, err)
	}
}

// TestOverloadRejects: at Load well above 1 the switch saturates and the
// engine starts rejecting on capacity — the loss model at work.
func TestOverloadRejects(t *testing.T) {
	cfg := shrunk()
	// Cap the backplane so the target population does not fit: ~600
	// tenants demand ~1.5 Gbps at the default per-user rates.
	cfg.Pipeline = SizedPipeline(cfg.TargetLive, 3, 3)
	cfg.Pipeline.CapacityGbps = 1
	cfg.Load = 2
	rep, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CapRejected == 0 {
		t.Fatalf("overloaded run rejected nothing on capacity: %+v", rep)
	}
	if rep.AcceptanceRatio >= 1 {
		t.Fatalf("acceptance ratio %.3f under overload", rep.AcceptanceRatio)
	}
}

// TestMinLatency pins the admission model: latency grows with chain
// length, and recirculation kicks in past one full pipeline of tables.
func TestMinLatency(t *testing.T) {
	cfg := pipeline.DefaultConfig()
	short := MinLatencyNs(cfg, 1)
	long := MinLatencyNs(cfg, cfg.Stages)
	wrapped := MinLatencyNs(cfg, cfg.Stages+1)
	if !(short < long && long < wrapped) {
		t.Fatalf("latency not monotone: %v %v %v", short, long, wrapped)
	}
	if want := cfg.ParserNs + cfg.DeparserNs + cfg.PerTableNs; short != want {
		t.Fatalf("1-table chain latency %v, want %v", short, want)
	}
	if diff := wrapped - long - cfg.PerTableNs - cfg.RecircNs - float64(cfg.Stages)*cfg.PerStageNs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("recirculation step off by %v", diff)
	}
}

// TestGenDeterminism: the workload generator alone (shared with sfpload's
// live-switch mode) is reproducible and produces valid shapes.
func TestGenDeterminism(t *testing.T) {
	cfg := shrunk().WithDefaults()
	a, b := NewGen(cfg), NewGen(cfg)
	for i := 0; i < 200; i++ {
		x, y := a.Next(), b.Next()
		if x.SFC.Tenant != y.SFC.Tenant || x.SLONs != y.SLONs || x.TTL != y.TTL {
			t.Fatalf("draw %d diverged", i)
		}
		if n := len(x.SFC.NFs); n < cfg.ChainLenMin || n > cfg.ChainLenMax {
			t.Fatalf("chain length %d outside [%d,%d]", n, cfg.ChainLenMin, cfg.ChainLenMax)
		}
		if x.Users < cfg.UsersMin || x.Users > cfg.UsersMax {
			t.Fatalf("users %d outside [%d,%d]", x.Users, cfg.UsersMin, cfg.UsersMax)
		}
		if x.TTL <= 0 {
			t.Fatalf("non-positive TTL %v", x.TTL)
		}
	}
}

// BenchmarkLifecycleChurn100k is the headline run: fill to 100k live
// tenants on a durable (group-commit journal) controller and sustain
// continuous churn at Load 1. Metrics: live population at end, mean
// population error, p99 arrival-batch latency, acceptance ratio.
func BenchmarkLifecycleChurn100k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := Bench100k()
		cfg.Dir = b.TempDir()
		rep, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rep.LiveAtEnd), "live")
		b.ReportMetric(rep.MeanLive, "mean_live")
		b.ReportMetric(float64(rep.ArriveP99.Milliseconds()), "p99_arrive_ms")
		b.ReportMetric(float64(rep.DepartP99.Milliseconds()), "p99_depart_ms")
		b.ReportMetric(rep.AcceptanceRatio, "accept_ratio")
		if !rep.SteadyState {
			b.Fatalf("steady state not reached: mean live %.1f", rep.MeanLive)
		}
	}
}

// TestTraceGoldens pins the seeded admission/departure traces of the smoke
// configuration and the shrunk test configuration: a change to placement,
// admission or churn that alters who gets placed changes these hashes.
func TestTraceGoldens(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"smoke", Smoke(), 0x4418cd118f7102d5},
		{"shrunk", shrunk(), 0xa35f7c6234a4dc97},
	} {
		rep, err := Run(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if rep.TraceHash != tc.want {
			t.Errorf("%s: trace hash %016x, want %016x", tc.name, rep.TraceHash, tc.want)
		}
	}
}
