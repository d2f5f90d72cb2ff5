package main

import (
	"fmt"
	"math"
	"runtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// n is how many samples the value summarises (shown in the table only).
	n int
	// note qualifies the value in the table (e.g. which percentile a tail
	// metric could support).
	note string
}

// metricDef names a metric and its unit; BENCHMARK.json lists the same names
// (TestBenchmarkJSONMatchesHarness keeps the two in step).
type metricDef struct{ name, unit string }

// endToEnd are the numbers a user of the system sees, reported by every
// workload from the untraced run.
var endToEnd = []metricDef{
	{"admit_p50_ms", "ms"},
	{"admit_p95_ms", "ms"},
	{"depart_p50_ms", "ms"},
	{"admit_per_s", "1/s"},
	{"accept_ratio", "ratio"},
	{"ttfp_p50_ms", "ms"},
	{"ttfp_p95_ms", "ms"},
	{"replay_mpps", "Mpkt/s"},
	{"provision_ms", "ms"},
	{"recover_ms", "ms"},
	{"reconcile_ms", "ms"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

// perLayer are the traced run's numbers, one layer each ("<module>.<what>").
// A layer a workload bypasses reports zero.
var perLayer = []metricDef{
	{"core.arrive_self_ms", "ms"},
	{"core.depart_self_ms", "ms"},
	{"core.arrive_many_p99_ms", "ms"},
	{"core.depart_many_p99_ms", "ms"},
	{"core.journal_bytes_per_txn", "B"},
	{"core.snapshot_rotations", "count"},
	{"core.provision_install_ms", "ms"},
	{"core.recover_self_ms", "ms"},
	{"placement.arrive_us", "us"},
	{"placement.depart_us", "us"},
	{"placement.replan_greedy_ms", "ms"},
	{"placement.replan_ip_ms", "ms"},
	{"placement.bb_nodes", "count"},
	{"placement.warm_ratio", "ratio"},
	{"placement.rebuild_ratio", "ratio"},
	{"placement.decomposed_ms", "ms"},
	{"placement.decomposed_gap_pct", "%"},
	{"placement.greedy_ms", "ms"},
	{"placement.new_updater_ms", "ms"},
	{"model.build_residual_ms", "ms"},
	{"model.residual_builds", "count"},
	{"model.verify_ms", "ms"},
	{"lp.cold_solve_ms", "ms"},
	{"lp.warm_solve_ms", "ms"},
	{"lp.iters", "count"},
	{"ilp.solve_ms", "ms"},
	{"ilp.nodes", "count"},
	{"wal.commit_us", "us"},
	{"wal.fsync_probe_us", "us"},
	{"wal.rotate_ms", "ms"},
	{"wal.bytes_on_disk", "B"},
	{"wal.open_ms", "ms"},
	{"vswitch.alloc_us_per_tenant", "us"},
	{"vswitch.dealloc_us_per_tenant", "us"},
	{"vswitch.entries_per_tenant", "count"},
	{"vswitch.export_ms", "ms"},
	{"vswitch.restore_ms", "ms"},
	{"pipeline.interp_ns", "ns"},
	{"pipeline.compiled_ns", "ns"},
	{"pipeline.batch_ns", "ns"},
	{"pipeline.allocs_per_pkt", "count"},
	{"pipeline.recirc_share", "ratio"},
	{"pipeline.miss_ratio", "ratio"},
	{"pipeline.insert_us", "us"},
	{"pipeline.delete_tenant_us", "us"},
	{"p4rt.ping_rtt_us", "us"},
	{"p4rt.batch_rtt_ms", "ms"},
	{"p4rt.codec_net_ms", "ms"},
	{"p4rt.wire_bytes_per_tenant", "B"},
	{"p4rt.inject_rtt_us", "us"},
	{"p4rt.dump_state_ms", "ms"},
	{"p4rt.retries", "count"},
	{"packet.parse_ns", "ns"},
	{"packet.deparse_ns", "ns"},
	{"traffic.replay_quiet_mpps_w1", "Mpkt/s"},
	{"traffic.replay_quiet_mpps_wN", "Mpkt/s"},
	{"traffic.engine_overhead_ns", "ns"},
	{"traffic.gen_ns_per_pkt", "ns"},
	{"lifecycle.gen_us", "us"},
	{"lifecycle.slo_reject_ratio", "ratio"},
	{"sfpbench.trace_overhead_pct", "%"},
}

// pooled is a run's samples pooled over its repetitions.
type pooled struct {
	admitMs, departMs, ttfpMs, replayMpps []float64
	provisionMs, recoverMs, reconcileMs   []float64
	setupS, heapMB                        []float64
	offered, accepted, sloRejected        int
	acceptedAll                           int
	churnSeconds                          float64
	bulkOffered, bulkPlaced               int
}

func (p *pooled) add(r *repResult) {
	p.admitMs = append(p.admitMs, r.admitMs...)
	p.departMs = append(p.departMs, r.departMs...)
	p.ttfpMs = append(p.ttfpMs, r.ttfpMs...)
	p.replayMpps = append(p.replayMpps, r.replayMpps...)
	p.provisionMs = append(p.provisionMs, r.provisionMs...)
	p.recoverMs = append(p.recoverMs, r.recoverMs...)
	p.reconcileMs = append(p.reconcileMs, r.reconcileMs...)
	p.setupS = append(p.setupS, r.setupS)
	p.heapMB = append(p.heapMB, r.heapMB)
	p.offered += r.offered
	p.accepted += r.accepted
	p.sloRejected += r.sloRejected
	p.acceptedAll += r.acceptedAll
	p.churnSeconds += r.churnSeconds
	p.bulkOffered += r.bulkOffered
	p.bulkPlaced += r.bulkPlaced
}

// endToEndMetrics turns pooled samples into the end-to-end metrics. Timings
// are medians and p95s over every timed operation of every repetition; p95 is
// refused below 200 samples.
func (p *pooled) endToEndMetrics(sp *spec) (map[string]metric, error) {
	m := map[string]metric{}
	med := func(name, unit string, xs []float64) error {
		if len(xs) == 0 {
			return fmt.Errorf("%s: no samples", name)
		}
		m[name] = metric{Value: median(xs), Unit: unit, n: len(xs)}
		return nil
	}
	p95 := func(name string, xs []float64) error {
		v, err := tail(xs, 0.95)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		m[name] = metric{Value: v, Unit: "ms", n: len(xs)}
		return nil
	}
	steps := []error{
		med("admit_p50_ms", "ms", p.admitMs),
		p95("admit_p95_ms", p.admitMs),
		med("depart_p50_ms", "ms", p.departMs),
		med("ttfp_p50_ms", "ms", p.ttfpMs),
		p95("ttfp_p95_ms", p.ttfpMs),
		med("replay_mpps", "Mpkt/s", p.replayMpps),
		med("provision_ms", "ms", p.provisionMs),
		med("recover_ms", "ms", p.recoverMs),
		med("reconcile_ms", "ms", p.reconcileMs),
		med("setup_s", "s", p.setupS),
		med("live_heap_mb", "MB", p.heapMB),
	}
	for _, err := range steps {
		if err != nil {
			return nil, err
		}
	}
	if p.churnSeconds <= 0 || p.offered == 0 {
		return nil, fmt.Errorf("no churn measured")
	}
	m["admit_per_s"] = metric{Value: float64(p.acceptedAll) / p.churnSeconds, Unit: "1/s", n: p.acceptedAll}
	offered, accepted := p.offered, p.accepted
	if sp.bulk {
		// The bulk workload's admission question is the full solve's: how
		// many of the contended candidates did the decomposition place.
		offered, accepted = p.bulkOffered, p.bulkPlaced
	}
	m["accept_ratio"] = metric{Value: float64(accepted) / float64(offered), Unit: "ratio", n: offered}
	return m, nil
}

// layerMetrics turns the traced repetitions' observations into the per-layer
// metrics: medians of sample lists, totals and ratios of sums. baseAdmit and
// tracedAdmit are the untraced and traced repetitions' admit medians (the
// tracing overhead); residualBuilds is counted over the untraced repetition,
// where no shadow planner builds residuals of its own.
func layerMetrics(ls *layerSamples, p *pooled, host hostInfo, baseAdmit, tracedAdmit float64, residualBuilds int64) map[string]metric {
	m := map[string]metric{}
	for _, d := range perLayer {
		m[d.name] = metric{Unit: d.unit}
	}
	set := func(name string, v float64, n int, note string) {
		e := m[name]
		e.Value, e.n, e.note = v, n, note
		m[name] = e
	}
	for _, d := range perLayer {
		if xs := ls.samples[d.name]; len(xs) > 0 {
			set(d.name, median(xs), len(xs), "")
		}
	}
	for _, t := range []struct{ name, src string }{
		{"core.arrive_many_p99_ms", "core.arrive_many_ms"},
		{"core.depart_many_p99_ms", "core.depart_many_ms"},
	} {
		if xs := ls.samples[t.src]; len(xs) > 0 {
			v, q := tailAtMost(xs, 0.99)
			note := ""
			if q != 0.99 {
				note = fmt.Sprintf("p%g: %d samples cannot support p99", q*100, len(xs))
			}
			set(t.name, v, len(xs), note)
		}
	}
	if n := ls.sums["core.journal_txns"]; n > 0 {
		set("core.journal_bytes_per_txn", ls.sums["core.journal_bytes"]/n, int(n), "")
	}
	set("core.snapshot_rotations", ls.sums["core.snapshot_rotations"], 0, "")
	if n := ls.sums["placement.replans"]; n > 0 {
		set("placement.warm_ratio", ls.sums["placement.replans_warm"]/n, int(n), "")
		set("placement.rebuild_ratio", ls.sums["placement.replans_rebuilt"]/n, int(n), "")
	}
	if n := ls.sums["pipeline.processed"]; n > 0 {
		set("pipeline.recirc_share", ls.sums["pipeline.recirculated"]/n, int(n), "")
	}
	if n := ls.sums["pipeline.hits"] + ls.sums["pipeline.misses"]; n > 0 {
		set("pipeline.miss_ratio", ls.sums["pipeline.misses"]/n, int(n), "")
	}
	set("model.residual_builds", float64(residualBuilds), 0, "untraced repetition")
	set("wal.fsync_probe_us", host.FsyncProbeUs, 0, "")
	if n := ls.sums["p4rt.mirrored_tenants"]; n > 0 {
		set("p4rt.wire_bytes_per_tenant", ls.sums["p4rt.wire_bytes"]/n, int(n), "")
	}
	set("p4rt.retries", ls.sums["p4rt.retries"], 0, "")
	if p.offered > 0 {
		set("lifecycle.slo_reject_ratio", float64(p.sloRejected)/float64(p.offered), p.offered, "")
	}
	if baseAdmit > 0 {
		set("sfpbench.trace_overhead_pct", 100*(tracedAdmit-baseAdmit)/baseAdmit, 0, "admit_p50_ms, traced vs untraced repetition")
	}
	if runtime.NumCPU() < 4 {
		e := m["traffic.replay_quiet_mpps_wN"]
		e.note = fmt.Sprintf("N=%d: this host cannot show scaling", runtime.NumCPU())
		m["traffic.replay_quiet_mpps_wN"] = e
	}
	for name, e := range m {
		if math.IsNaN(e.Value) || math.IsInf(e.Value, 0) {
			e.Value = 0
			m[name] = e
		}
	}
	return m
}
