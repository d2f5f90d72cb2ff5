package main

import (
	"testing"
	"time"
)

func TestPercentileSelection(t *testing.T) {
	for _, c := range []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{10000, 0.999, 0.999, true},
		{9999, 0.999, 0.99, true},
		{1000, 0.99, 0.99, true},
		{999, 0.99, 0.95, true}, // p99 needs ten samples beyond it
		{200, 0.95, 0.95, true},
		{199, 0.95, 0.90, true}, // p95 refused under 200 samples
		{100, 0.99, 0.90, true},
		{99, 0.99, 0, false},
		{5000, 0.95, 0.95, true}, // never above the limit asked for
	} {
		q, ok := highestPercentile(c.n, c.limit)
		if q != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d, %g) = %g, %v; want %g, %v", c.n, c.limit, q, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 199)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if _, err := tail(xs, 0.95); err == nil {
		t.Error("tail accepted p95 of 199 samples")
	}
	xs = append(xs, 200)
	if v, err := tail(xs, 0.95); err != nil || v != 190 {
		t.Errorf("p95 of 1..200 = %v, %v; want 190", v, err)
	}
	if v, q := tailAtMost(xs, 0.99); q != 0.95 || v != 190 {
		t.Errorf("tailAtMost(1..200, p99) = %v at p%g; want 190 at p95", v, q*100)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "txn", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.ArriveMany", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "inner.a", Start: 15, End: 30},
		{ID: 4, Parent: 2, Name: "inner.b", Start: 25, End: 40},                     // overlaps inner.a: the union counts once
		{ID: 5, Parent: 2, Name: "inner.late", Start: 55, End: 80},                  // clipped to its parent's end
		{ID: 6, Parent: 1, ShadowOf: 2, Name: "wal.Log.Commit", Start: 60, End: 70}, // replays work done inside span 2
		{ID: 7, Parent: 1, ShadowOf: 2, Name: "vswitch.AllocateBatch", Start: 70, End: 75},
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{
		1: 100 - (50 + 10 + 5), // children 2, 6, 7
		2: 50 - (25 + 5) - 15,  // children cover [15,40] and [55,60]; shadows took 10+5
		3: 15,
		6: 10,
	} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.nextTxn()
	outer := tr.start("outer")
	inner := tr.start("inner")
	inner.stop()
	sh := tr.startShadow("shadow", inner.id)
	sh.stop()
	outer.stop()
	if len(tr.spans) != 3 {
		t.Fatalf("%d spans recorded, want 3", len(tr.spans))
	}
	if tr.spans[1].Parent != 1 || tr.spans[2].Parent != 1 || tr.spans[2].ShadowOf != 2 {
		t.Errorf("span links wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.Txn != 1 || s.End < s.Start {
			t.Errorf("span %+v: want txn 1 and end >= start", s)
		}
	}
	var none *tracer
	if d := none.start("untraced").stop(); d < 0 {
		t.Errorf("nil tracer timed %v", d)
	}
}

// quickOptions are the smoke-test sizes: tenth-size workloads, a short
// window, the fixed-horizon ticks doing most of the work.
func quickOptions(trace string, seed int64) options {
	o := options{seed: seed, seconds: 0.3, reps: 3, trace: trace, quick: true}
	if trace != "0" {
		o.reps = 2 // one untraced baseline, one traced; no p95 to support
	}
	return o
}

func runQuick(t *testing.T, name, trace string, seed int64) *runResult {
	t.Helper()
	sp, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	q := sp.quick()
	work := t.TempDir()
	host, err := fingerprint(work)
	if err != nil {
		t.Fatal(err)
	}
	res := runWorkload(&q, quickOptions(trace, seed), work, host)
	if res.err != nil || !res.correct || res.failed != 0 {
		t.Fatalf("%s trace=%s seed=%d: correct=%v failed=%d: %v", name, trace, seed, res.correct, res.failed, res.err)
	}
	return res
}

func TestSeedDeterminism(t *testing.T) {
	life := func(name string, seed int64) *repResult {
		t.Helper()
		sp, err := findWorkload(name)
		if err != nil {
			t.Fatal(err)
		}
		q := sp.quick()
		r, err := runLife(&q, seed, 0, t.TempDir(), 0, nil)
		if err != nil {
			t.Fatalf("%s seed %d: %v", name, seed, err)
		}
		return r
	}
	for _, name := range []string{"churn-greedy-10k", "stack-fat-1k"} {
		a, b, c := life(name, 3), life(name, 3), life(name, 4)
		if a.hash != b.hash {
			t.Errorf("%s: same seed, trace hashes %016x and %016x", name, uint64(a.hash), uint64(b.hash))
		}
		if a.accepted != b.accepted || a.offered != b.offered {
			t.Errorf("%s: same seed, accepted %d of %d and %d of %d", name, a.accepted, a.offered, b.accepted, b.offered)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 3 and 4 give the same trace hash %016x", name, uint64(a.hash))
		}
	}
}

// TestQuickSmoke runs all five workloads, untraced and traced, at -quick
// size: every correctness check runs, every metric is reported.
func TestQuickSmoke(t *testing.T) {
	start := time.Now()
	for _, w := range workloads {
		plain := runQuick(t, w.name, "0", 1)
		for _, d := range endToEnd {
			if m, ok := plain.metrics[d.name]; !ok || m.Value <= 0 || m.Unit != d.unit {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value in %s", w.name, d.name, m, d.unit)
			}
		}
		traced := runQuick(t, w.name, "1", 1)
		if traced.hash != plain.hash {
			t.Errorf("%s: traced run's trace hash differs from the untraced run's", w.name)
		}
		for _, d := range perLayer {
			if m, ok := traced.metrics[d.name]; !ok || m.Unit != d.unit {
				t.Errorf("%s: per-layer metric %s = %+v, want unit %s", w.name, d.name, m, d.unit)
			}
		}
		for _, name := range []string{"core.arrive_self_ms", "core.depart_self_ms"} {
			if v := traced.metrics[name].Value; v < 0 {
				t.Errorf("%s: %s = %v, want >= 0", w.name, name, v)
			}
		}
		if v := traced.metrics["pipeline.allocs_per_pkt"].Value; v != 0 {
			t.Errorf("%s: hot path allocates %v per packet", w.name, v)
		}
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("quick smoke took %v, want under 30s", d)
	}
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's names and units in
// step with what the harness reports.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bf, err := loadBenchmarkFile()
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, harness has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, harness %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, harness has %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end-to-end %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, harness has %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: BENCHMARK.json %s [%s], harness %s [%s]", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}
