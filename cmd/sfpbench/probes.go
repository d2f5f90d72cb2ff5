package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"sfp/internal/core"
	"sfp/internal/ilp"
	"sfp/internal/lifecycle"
	"sfp/internal/lp"
	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/packet"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
	"sfp/internal/traffic"
	"sfp/internal/wal"
)

// The probes below run only on traced repetitions, outside every end-to-end
// interval. Each times one exported call of one layer on the state the
// workload built, so a per-layer number is always "this layer, at this
// workload's working-set size".

// probePackets is how many packet-processings each data-plane probe loop
// does: enough that a 100 ns/packet path runs for milliseconds.
const probePackets = 1 << 16

// probeSolve times the layers inside a Provision that took d: the solver the
// controller's algorithm runs on this instance, and the planner construction.
// What is left of d is core's install and journaling.
func (l *life) probeSolve(in *model.Instance, a *model.Assignment, algo core.Algorithm, d time.Duration) error {
	ls := l.res.layer
	build := model.BuildOptions{Consolidate: l.opts.Consolidate}
	sp := l.tr.start("placement.SolveGreedy")
	_, err := placement.SolveGreedy(in, placement.GreedyOptions{Consolidate: build.Consolidate})
	greedy := sp.stop()
	if err != nil {
		return err
	}
	ls.add("placement.greedy_ms", ms(greedy))
	solve := greedy
	if algo == core.AlgoIP && len(in.Chains) >= placement.DefaultDecomposeAbove {
		sp := l.tr.start("placement.SolveDecomposed")
		res, err := placement.SolveDecomposed(in, placement.DecomposeOptions{Build: build, TimeLimit: 10 * time.Second})
		solve = sp.stop()
		if err != nil {
			return err
		}
		ls.add("placement.decomposed_ms", ms(solve))
		ls.add("placement.decomposed_gap_pct", 100*res.Gap)
	}
	sp = l.tr.start("placement.NewUpdater")
	_, err = placement.NewUpdater(in, a, build)
	upd := sp.stop()
	if err != nil {
		return err
	}
	ls.add("placement.new_updater_ms", ms(upd))
	ls.add("core.provision_install_ms", ms(d-solve-upd))
	return nil
}

// probeProvision is probeSolve on the main controller's just-provisioned
// fleet.
func (l *life) probeProvision(d time.Duration) error {
	in, a, _, err := l.ctrl.Snapshot()
	if err != nil {
		return err
	}
	return l.probeSolve(in, a, l.sp.algo, d)
}

// probeJournal runs between Close and RecoverSwitch: the journal's size on
// disk, opening (replaying) a copy of it, and one snapshot rotation of the
// shadow journal with a snapshot as large as the real journal.
func (l *life) probeJournal() error {
	ls := l.res.layer
	size := dirSize(l.dir)
	ls.add("wal.bytes_on_disk", float64(size))
	tmp := filepath.Join(l.work, "journal-copy")
	if err := copyDir(l.dir, tmp); err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	sp := l.tr.start("wal.Open")
	log, _, err := wal.Open(tmp)
	l.openDur = sp.stop()
	if err != nil {
		return err
	}
	ls.add("wal.open_ms", ms(l.openDur))
	if err := log.Close(); err != nil {
		return err
	}
	if l.sh != nil {
		sp := l.tr.start("wal.Log.Rotate")
		err := l.sh.log.Rotate(make([]byte, size))
		ls.add("wal.rotate_ms", ms(sp.stop()))
		if err != nil {
			return err
		}
	}
	return nil
}

// probeRecovered splits a RecoverSwitch that took d: journal replay (timed by
// probeJournal on a copy) and planner reconstruction are lower layers, the
// rest is core decoding records and rebuilding its registry.
func (l *life) probeRecovered(c *core.Controller, d time.Duration) error {
	in, a, _, err := c.Snapshot()
	if err != nil {
		return err
	}
	sp := l.tr.start("placement.NewUpdater")
	_, err = placement.NewUpdater(in, a, model.BuildOptions{Consolidate: l.opts.Consolidate})
	upd := sp.stop()
	if err != nil {
		return err
	}
	l.res.layer.add("placement.new_updater_ms", ms(upd))
	l.res.layer.add("core.recover_self_ms", ms(d-l.openDur-upd))
	return nil
}

// probeLayers runs at the end of a traced window, on the state the churn
// left: data-plane paths on a restored copy of the switch (so NF registers
// and counters of the live one are not disturbed), the codec paths, the
// solver kernels on a residual program built from the live planner state.
func (l *life) probeLayers() error {
	ls := l.res.layer
	live := l.ctrl.VSwitch()

	sp := l.tr.start("vswitch.ExportState")
	st := live.ExportState()
	ls.add("vswitch.export_ms", ms(sp.stop()))
	sp = l.tr.start("vswitch.Restore")
	v, err := restoredCopy(l, st)
	ls.add("vswitch.restore_ms", ms(sp.stop()))
	if err != nil {
		return err
	}
	if n := live.Tenants(); n > 0 {
		ls.add("vswitch.entries_per_tenant", float64(live.Pipe.EntriesUsed())/float64(n))
	}
	l.foldTelemetry()

	// One pristine burst, restored before every pass.
	l.dp.fill(l, nil, nil)
	pristine := append([]packet.Packet(nil), l.dp.pkts...)
	items := l.dp.items
	rounds := max(probePackets/len(items), 1)
	perPkt := func(name string, pass func()) float64 {
		var total time.Duration
		for r := 0; r < rounds; r++ {
			copy(l.dp.pkts, pristine)
			sp := l.tr.start(name)
			pass()
			total += sp.stop()
		}
		return float64(total.Nanoseconds()) / float64(rounds*len(items))
	}
	ls.add("pipeline.interp_ns", perPkt("pipeline.Pipeline.Process", func() {
		for i := range items {
			v.Pipe.Process(items[i].Pkt, items[i].NowNs)
		}
	}))
	comp := v.Compiled()
	ctx := new(pipeline.Context)
	ls.add("pipeline.compiled_ns", perPkt("pipeline.Compiled.ProcessCtx", func() {
		for i := range items {
			comp.ProcessCtx(items[i].Pkt, items[i].NowNs, ctx)
		}
	}))
	scratch := comp.NewScratch()
	out := make([]pipeline.Result, 0, len(items))
	batchNs := perPkt("pipeline.Compiled.ProcessBatch", func() {
		out = comp.ProcessBatch(items, out[:0], scratch)
	})
	ls.add("pipeline.batch_ns", batchNs)
	// Exact allocation count of the hot path: mallocs across one more
	// batch, with every other goroutine of the harness idle.
	copy(l.dp.pkts, pristine)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	out = comp.ProcessBatch(items, out[:0], scratch)
	runtime.ReadMemStats(&m1)
	ls.add("pipeline.allocs_per_pkt", float64(m1.Mallocs-m0.Mallocs)/float64(len(items)))

	for _, workers := range []int{1, runtime.NumCPU()} {
		eng := traffic.Engine{Workers: workers, New: func(int) (traffic.Processor, error) { return v, nil }}
		copy(l.dp.pkts, pristine)
		if _, err := eng.Replay(items); err != nil { // builds the pool
			return err
		}
		ns := perPkt("traffic.Engine.Replay", func() { _, err = eng.Replay(items) })
		eng.Close()
		if err != nil {
			return err
		}
		name := "traffic.replay_quiet_mpps_wN"
		if workers == 1 {
			name = "traffic.replay_quiet_mpps_w1"
			ls.add("traffic.engine_overhead_ns", ns-batchNs)
		}
		ls.add(name, 1e3/ns)
		if runtime.NumCPU() == 1 {
			ls.add("traffic.replay_quiet_mpps_wN", 1e3/ns)
			break
		}
	}

	copy(l.dp.pkts, pristine)
	wires := make([][]byte, len(pristine))
	sp = l.tr.start("packet.Deparse")
	for i := range pristine {
		wires[i] = packet.Deparse(&l.dp.pkts[i])
	}
	ls.add("packet.deparse_ns", float64(sp.stop().Nanoseconds())/float64(len(wires)))
	sp = l.tr.start("packet.Parse")
	for _, w := range wires {
		if _, err := packet.Parse(w, false); err != nil {
			return fmt.Errorf("parsing a deparsed probe packet: %w", err)
		}
	}
	ls.add("packet.parse_ns", float64(sp.stop().Nanoseconds())/float64(len(wires)))

	if err := l.probeTable(); err != nil {
		return err
	}
	if err := l.probeSolvers(); err != nil {
		return err
	}
	if l.rem != nil {
		return l.rem.probe(l)
	}
	return nil
}

// foldTelemetry adds the live switch's packet and table-lookup counters to
// the run's sums; a crash replaces the switch, so it is called before each
// one and at the end of the window.
func (l *life) foldTelemetry() {
	ls := l.res.layer
	tel := l.ctrl.VSwitch().Pipe.Snapshot()
	ls.count("pipeline.processed", float64(tel.Processed))
	ls.count("pipeline.recirculated", float64(tel.Recirculated))
	for _, s := range tel.Stages {
		for _, t := range s.Tables {
			ls.count("pipeline.hits", float64(t.Hits))
			ls.count("pipeline.misses", float64(t.Misses))
		}
	}
}

// probeTable times rule insert and tenant delete on a stand-alone firewall
// table holding as many tenants, with as many rules each, as the workload's
// live set.
func (l *life) probeTable() error {
	keys := []pipeline.Key{
		{Field: pipeline.FieldTenantID, Kind: pipeline.MatchExact},
		{Field: pipeline.FieldPass, Kind: pipeline.MatchExact},
	}
	keys = append(keys, nf.ForType(nf.Firewall).Keys...)
	tenants := max(len(l.liveIDs), 1)
	perTenant := (l.cfg.RuleMin + l.cfg.RuleMax) / 2
	tbl := pipeline.NewTable("probe", keys, tenants*perTenant)
	tbl.RegisterAction("permit", func(*pipeline.Context, *packet.Packet, []uint64) {})
	rules := make([]*pipeline.Rule, 0, tenants*perTenant)
	for t := 1; t <= tenants; t++ {
		for r := 0; r < perTenant; r++ {
			rules = append(rules, &pipeline.Rule{
				Priority: r,
				Matches: []pipeline.Match{
					pipeline.Eq(uint64(t)), pipeline.Eq(0),
					pipeline.Masked(uint64(packet.IPv4Addr(10, byte(t>>8), byte(t), 0)), 0xffffff00),
					pipeline.Wildcard(), pipeline.Eq(uint64(packet.ProtoTCP)), pipeline.Eq(uint64(1024 + r)),
				},
				Action: "permit", Tenant: uint32(t),
			})
		}
	}
	sp := l.tr.start("pipeline.Table.Insert")
	for _, r := range rules {
		if err := tbl.Insert(r); err != nil {
			sp.stop()
			return fmt.Errorf("table probe: %w", err)
		}
	}
	l.res.layer.add("pipeline.insert_us", us(sp.stop())/float64(len(rules)))
	n := min(tenants, 512)
	sp = l.tr.start("pipeline.Table.DeleteTenant")
	for t := 1; t <= n; t++ {
		tbl.DeleteTenant(uint32(t))
	}
	l.res.layer.add("pipeline.delete_tenant_us", us(sp.stop())/float64(n))
	return nil
}

// probeSolvers times the model and solver kernels behind a pinned-IP replan
// on the live planner state: the residual build, then — with a tick's worth
// of fresh arrivals appended as the waiting set — a cold LP, the same LP
// re-entered from its own optimal basis, and the branch and bound. On greedy
// workloads none of this code runs in a transition, so only the residual
// build (which recovery-time planners do pay) is timed.
func (l *life) probeSolvers() error {
	ls := l.res.layer
	in, a, _, err := l.ctrl.Snapshot()
	if err != nil {
		return err
	}
	pinned := map[int][]int{}
	for i, ch := range in.Chains {
		if a.Deployed(i) {
			pinned[ch.ID] = a.Stages[i]
		}
	}
	build := model.BuildOptions{Consolidate: l.opts.Consolidate}
	sp := l.tr.start("model.BuildResidual")
	resid, err := model.BuildResidual(in, pinned, a.X, build)
	ls.add("model.build_residual_ms", ms(sp.stop()))
	if err != nil {
		return err
	}
	if l.sp.algo != core.AlgoIP {
		return nil
	}
	cfg := l.cfg
	cfg.Seed += 104729
	rate := l.cfg.Load * float64(l.cfg.TargetLive) / l.cfg.MeanTTL * l.cfg.Tick
	for i, t := range lifecycle.NewGen(cfg).Batch(max(int(rate), 1)) {
		ch := chainOf(t.SFC)
		ch.ID = 1<<30 + i
		if _, _, err := resid.Append(ch); err != nil {
			return err
		}
	}
	sp = l.tr.start("lp.Problem.Solve")
	cold, err := resid.Prob.Solve(lp.Options{})
	ls.add("lp.cold_solve_ms", ms(sp.stop()))
	if err != nil {
		return err
	}
	ls.add("lp.iters", float64(cold.Iters))
	sp = l.tr.start("lp.Problem.Solve")
	_, err = resid.Prob.Solve(lp.Options{WarmBasis: cold.Basis})
	ls.add("lp.warm_solve_ms", ms(sp.stop()))
	if err != nil {
		return err
	}
	sp = l.tr.start("ilp.Solve")
	res, err := ilp.Solve(&ilp.Problem{LP: resid.Prob, IntVars: resid.IntVars()},
		ilp.Options{TimeLimit: 10 * time.Second, CeilVars: resid.AuxVars()})
	ls.add("ilp.solve_ms", ms(sp.stop()))
	if err != nil {
		return err
	}
	ls.add("ilp.nodes", float64(res.Nodes))
	return nil
}

// probe times the bare round trips of the southbound channel.
func (r *remote) probe(l *life) error {
	ls := l.res.layer
	const n = 64
	rtts := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		sp := l.tr.start("p4rt.Client.Ping")
		err := r.cli.Ping()
		rtts = append(rtts, us(sp.stop()))
		if l.res.call(err) != nil {
			return err
		}
	}
	ls.add("p4rt.ping_rtt_us", median(rtts))
	rtts = rtts[:0]
	for i := 0; i < n; i++ {
		p := l.tenants[l.liveIDs[i%len(l.liveIDs)]].pkt
		wire := packet.Deparse(&p)
		sp := l.tr.start("p4rt.Client.Inject")
		_, err := r.cli.Inject(wire, 0)
		rtts = append(rtts, us(sp.stop()))
		if l.res.call(err) != nil {
			return err
		}
	}
	ls.add("p4rt.inject_rtt_us", median(rtts))
	ls.count("p4rt.retries", float64(r.dials.Load()-1))
	return nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
