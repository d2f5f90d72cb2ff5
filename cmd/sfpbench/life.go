package main

import (
	"container/heap"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"sfp/internal/core"
	"sfp/internal/lifecycle"
	"sfp/internal/model"
	"sfp/internal/packet"
	"sfp/internal/vswitch"
)

// tenant is one live tenant as the harness tracks it.
type tenant struct {
	*lifecycle.Tenant
	// pkt is the tenant's probe packet (see craftPacket); hits reports that
	// it was aimed at one of the tenant's own rules.
	pkt  packet.Packet
	hits bool
}

// expiry is one scheduled departure.
type expiry struct {
	at     float64
	tenant uint32
}

// expiryHeap orders departures by time, tenant ID breaking ties so the trace
// is deterministic.
type expiryHeap []expiry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tenant < h[j].tenant
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiry)) }
func (h *expiryHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// traceHash folds (tick, tenant, outcome) into an FNV-64a hash.
type traceHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (t *traceHash) add(vs ...uint64) {
	h := uint64(*t)
	for _, v := range vs {
		for i := 0; i < 8; i++ {
			h ^= v >> (56 - 8*i) & 0xff
			h *= fnvPrime
		}
	}
	*t = traceHash(h)
}

// Admission outcomes folded into the trace hash.
const (
	outcomePlaced = iota
	outcomeSLO
	outcomeCapacity
)

// repResult is what one repetition measured. Sample slices hold one value
// per timed operation; the run pools them over repetitions.
type repResult struct {
	admitMs, departMs, ttfpMs, replayMpps []float64
	provisionMs, recoverMs, reconcileMs   []float64
	setupS, heapMB                        float64

	// Counters over the fixed minTicks horizon (identical for one seed).
	offered, accepted, sloRejected int
	hash                           traceHash
	// Counters over the whole window.
	acceptedAll, ticks int
	churnSeconds       float64
	attempted, failed  int
	layer              *layerSamples
	// bulk: candidates offered to and placed by the full solves inside the
	// fixed horizon.
	bulkOffered, bulkPlaced int
}

// call counts one call into the program under test, and its failure.
func (r *repResult) call(err error) error {
	r.attempted++
	if err != nil {
		r.failed++
	}
	return err
}

// life is one repetition of a workload: one controller from provisioning to
// recovery.
type life struct {
	sp   *spec
	cfg  lifecycle.Config
	opts core.Options
	work string // scratch directory of this repetition
	dir  string // the controller's journal directory

	ctrl *core.Controller
	gen  *lifecycle.Gen
	rng  *rand.Rand // harness draws (replay targets); the tenant stream has its own
	tr   *tracer
	res  *repResult

	expiries expiryHeap
	now      float64
	tick     int
	hash     traceHash
	tenants  map[uint32]*tenant
	liveIDs  []uint32
	livePos  map[uint32]int
	vids     *vidPool // remote only: tenant IDs must fit a VLAN ID

	dp  *dataplane
	rem *remote
	sh  *shadows
	// bulkGen draws the bulk full solve's candidates: a fresh fleet every
	// cycle, from its own stream so the main trace does not depend on it.
	bulkGen *lifecycle.Gen
	// journalName is the journal generation last seen; openDur is how long
	// the journal copy took to open before the latest recovery (traced).
	journalName string
	openDur     time.Duration
}

// bulkSamples is how many times each repetition repeats its bulk operations
// (the fleet Provision; RecoverSwitch + Reconcile at the crash).
const bulkSamples = 5

// runLife runs one repetition: set-up, the measured window (with its crash and
// recovery at the fixed horizon), the end-of-life checks. tr is nil on untraced
// repetitions.
func runLife(sp *spec, seed int64, window time.Duration, work string, rep int, tr *tracer) (*repResult, error) {
	l := &life{
		sp: sp, work: work, tr: tr, res: &repResult{},
		rng:     rand.New(rand.NewSource(seed ^ 0x5f3759df)),
		tenants: map[uint32]*tenant{}, livePos: map[uint32]int{},
		hash: fnvOffset,
	}
	if tr != nil {
		tr.rep = rep
		l.res.layer = newLayerSamples()
	}
	l.cfg = sp.lifecycleConfig(seed)
	l.opts = sp.controllerOptions(l.cfg)
	defer l.close()

	t0 := time.Now()
	if err := l.setup(); err != nil {
		return l.res, fmt.Errorf("set-up: %w", err)
	}
	l.res.setupS = time.Since(t0).Seconds()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.res.heapMB = float64(mem.HeapAlloc) / (1 << 20)

	if err := l.window(window); err != nil {
		return l.res, err
	}
	if tr != nil {
		if err := l.probeLayers(); err != nil {
			return l.res, fmt.Errorf("layer probes: %w", err)
		}
	}
	return l.res, l.verify()
}

// setup builds the controller, provisions the whole fleet in one call and
// churns the warm ticks.
func (l *life) setup() error {
	l.dir = filepath.Join(l.work, "journal")
	if err := os.MkdirAll(l.dir, 0o755); err != nil {
		return err
	}
	var err error
	l.ctrl, err = core.Recover(l.dir, l.opts)
	if l.res.call(err) != nil {
		return err
	}
	l.gen = lifecycle.NewGen(l.cfg)
	if l.sp.remote {
		l.vids = newVIDPool()
		if l.rem, err = startRemote(l); err != nil {
			return err
		}
	}
	l.dp = newDataplane(l)

	// The fleet: TargetLive candidates, SLO-filtered, in one Provision. It
	// is provisioned bulkSamples times — on scratch durable controllers
	// first, then on the one the life keeps — because one sample of a
	// 100 ms operation does not repeat within a tenth.
	batch := l.draw(l.cfg.TargetLive)
	admitted, slo := l.sloFilter(batch)
	var d time.Duration
	for i := 0; i < bulkSamples; i++ {
		ctrl, scratch := l.ctrl, ""
		if last := i == bulkSamples-1; !last {
			if l.sp.bulk {
				continue // its provision_ms is the decomposed full solve's
			}
			scratch = filepath.Join(l.work, fmt.Sprintf("scratch-journal-%d", i))
			if ctrl, err = core.Recover(scratch, l.opts); err != nil {
				return err
			}
		}
		runtime.GC()
		sp := l.tr.start("core.Provision")
		_, err = ctrl.Provision(sfcsOf(admitted))
		d = sp.stop()
		if scratch != "" {
			ctrl.Close()
			os.RemoveAll(scratch)
		}
		if l.res.call(err) != nil {
			return err
		}
		if !l.sp.bulk {
			l.res.provisionMs = append(l.res.provisionMs, ms(d))
		}
	}
	placed := setOf(l.ctrl.PlacedTenants())
	if err := l.settle(admitted, placed); err != nil {
		return err
	}
	l.traceBatch(^uint64(0), batch, placed, slo)
	if l.rem != nil {
		if _, err := l.rem.mirrorArrivals(l, keys(placed)); err != nil {
			return err
		}
	}
	if l.sp.bulk {
		l.bulkGen = lifecycle.NewGen(l.sp.lifecycleConfig(l.cfg.Seed + 7919))
	}
	if l.tr != nil {
		if err := l.probeProvision(d); err != nil {
			return err
		}
		if l.sh, err = newShadows(l); err != nil {
			return err
		}
	}
	for i := 0; i < l.sp.warmTicks; i++ {
		if err := l.churnTick(false); err != nil {
			return err
		}
	}
	return nil
}

// window churns for the given wall time, and past it until minTicks ticks
// are done so the fixed-horizon counters cover the same ticks on every
// repetition.
func (l *life) window(d time.Duration) error {
	deadline := time.Now().Add(d)
	for l.res.ticks < l.sp.minTicks || time.Now().Before(deadline) {
		if l.sp.bulk && l.res.ticks%l.sp.cycleTicks == 0 {
			if err := l.bulkCycle(); err != nil {
				return err
			}
		}
		if err := l.churnTick(true); err != nil {
			return err
		}
		// The crash comes at the fixed horizon, not at the end of the wall
		// clock window, so every repetition recovers the same journal.
		if !l.sp.bulk && l.res.ticks == l.sp.minTicks {
			if err := l.crashRecover(bulkSamples); err != nil {
				return fmt.Errorf("recovery: %w", err)
			}
		}
	}
	return nil
}

// draw synthesizes n tenants; on remote workloads IDs are remapped into the
// VLAN ID space, the only tenant field the wire carries.
func (l *life) draw(n int) []*lifecycle.Tenant {
	sp := l.tr.start("lifecycle.Gen.Batch")
	batch := l.gen.Batch(n)
	d := sp.stop()
	if n > 0 {
		l.res.layer.add("lifecycle.gen_us", us(d)/float64(n))
	}
	if l.vids != nil {
		for _, t := range batch {
			t.SFC.Tenant = l.vids.take()
		}
	}
	return batch
}

// sloFilter splits a batch into placement candidates and SLO rejections,
// the portal-side admission step that runs before the controller sees a
// tenant.
func (l *life) sloFilter(batch []*lifecycle.Tenant) (admitted []*lifecycle.Tenant, rejected int) {
	for _, t := range batch {
		if lifecycle.MinLatencyNs(l.cfg.Pipeline, len(t.SFC.NFs)) > t.SLONs {
			rejected++
			l.release(t.SFC.Tenant)
			continue
		}
		admitted = append(admitted, t)
	}
	return admitted, rejected
}

// release returns a tenant ID to the VLAN pool (remote workloads).
func (l *life) release(id uint32) {
	if l.vids != nil {
		l.vids.give(id)
	}
}

// settle books an offered batch: placed tenants become live and get their
// departure scheduled, refused ones leave at once (loss model).
func (l *life) settle(admitted []*lifecycle.Tenant, placed map[uint32]bool) error {
	var refused []uint32
	for _, t := range admitted {
		id := t.SFC.Tenant
		if !placed[id] {
			refused = append(refused, id)
			continue
		}
		heap.Push(&l.expiries, expiry{at: l.now + t.TTL, tenant: id})
		tn := &tenant{Tenant: t}
		tn.pkt, tn.hits = craftPacket(t.SFC, l.sp.remote)
		l.tenants[id] = tn
		l.livePos[id] = len(l.liveIDs)
		l.liveIDs = append(l.liveIDs, id)
	}
	if len(refused) == 0 {
		return nil
	}
	slices.Sort(refused)
	l.tr.nextTxn()
	d, err := l.departMany(refused, nil)
	if err != nil {
		return fmt.Errorf("withdrawing refused tenants: %w", err)
	}
	l.res.churnSeconds += d.Seconds()
	for _, id := range refused {
		l.release(id)
	}
	return nil
}

// departMany is one timed core.DepartMany, replayed on the shadows when the
// repetition is traced. placed is the subset of tenants that hold rules.
func (l *life) departMany(tenants, placed []uint32) (time.Duration, error) {
	before := l.journalStat()
	sp := l.tr.start("core.DepartMany")
	err := l.ctrl.DepartMany(tenants)
	d := sp.stop()
	if l.res.call(err) != nil {
		return d, err
	}
	if l.sh != nil {
		err = l.sh.depart(l, sp.id, d, tenants, placed, before, l.journalStat())
	}
	return d, err
}

// forget drops a departed tenant from the live set.
func (l *life) forget(id uint32) {
	delete(l.tenants, id)
	pos := l.livePos[id]
	last := l.liveIDs[len(l.liveIDs)-1]
	l.liveIDs[pos] = last
	l.livePos[last] = pos
	l.liveIDs = l.liveIDs[:len(l.liveIDs)-1]
	delete(l.livePos, id)
}

// churnTick advances the virtual clock one tick: expire due tenants in one
// DepartMany, offer the tick's Poisson arrivals in one ArriveMany, send each
// newly placed tenant's first packet, replay the tick's traffic burst.
// Unmeasured ticks (warm-up) do the same work without recording it.
func (l *life) churnTick(measured bool) error {
	l.now += l.cfg.Tick
	res := l.res
	inHorizon := measured && res.ticks < l.sp.minTicks

	var due []uint32
	for len(l.expiries) > 0 && l.expiries[0].at <= l.now {
		due = append(due, heap.Pop(&l.expiries).(expiry).tenant)
	}
	gone, err := l.departTick(due, measured)
	if err != nil {
		return fmt.Errorf("tick %d: depart: %w", l.tick, err)
	}

	rate := l.cfg.Load * float64(l.cfg.TargetLive) / l.cfg.MeanTTL
	batch := l.draw(l.gen.Poisson(rate * l.cfg.Tick))
	admitted, slo := l.sloFilter(batch)
	arrived, err := l.arriveTick(admitted, measured)
	if err != nil {
		return fmt.Errorf("tick %d: arrive: %w", l.tick, err)
	}

	l.traceBatch(uint64(l.tick), batch, setOf(arrived), slo)
	l.hash.add(uint64(len(due)))
	for _, id := range due {
		l.hash.add(uint64(id))
	}
	if measured {
		res.acceptedAll += len(arrived)
	}
	if inHorizon {
		res.offered += len(batch)
		res.accepted += len(arrived)
		res.sloRejected += slo
	}

	mpps, err := l.dp.replayBurst(l, arrived, gone, measured)
	if err != nil {
		return fmt.Errorf("tick %d: replay: %w", l.tick, err)
	}
	l.tick++
	if measured {
		res.replayMpps = append(res.replayMpps, mpps)
		res.ticks++
		if res.ticks == l.sp.minTicks {
			// Freeze the fixed-horizon hash: later ticks depend on how far
			// the wall-clock window got.
			res.hash = l.hash
		}
	}
	return nil
}

// departTick is the tick's departure transition: one DepartMany for every
// tenant whose TTL ran out (plus its mirror on remote workloads). It returns
// the departed tenants' probe packets, which must miss from now on.
func (l *life) departTick(due []uint32, measured bool) (gone []packet.Packet, err error) {
	if len(due) == 0 {
		return nil, nil
	}
	res := l.res
	l.tr.nextTxn()
	txn := l.tr.start("txn.depart")
	d, err := l.departMany(due, due)
	if err != nil {
		return nil, err
	}
	if measured {
		res.layer.add("core.depart_many_ms", ms(d))
	}
	if l.rem != nil {
		rd, err := l.rem.mirrorDepartures(l, due)
		if err != nil {
			return nil, err
		}
		d += rd
	}
	txn.stop()
	for _, id := range due {
		gone = append(gone, l.tenants[id].pkt)
		l.forget(id)
		l.release(id)
	}
	res.churnSeconds += d.Seconds()
	if measured {
		res.departMs = append(res.departMs, ms(d))
	}
	return gone, nil
}

// arriveTick is the tick's arrival transition: one ArriveMany for the
// SLO-admitted batch (plus its mirror), the withdrawal of whatever the replan
// refused, and the first packet of every tenant it placed. It returns the
// placed tenants.
func (l *life) arriveTick(admitted []*lifecycle.Tenant, measured bool) (placed []uint32, err error) {
	if len(admitted) == 0 {
		return nil, nil
	}
	res := l.res
	l.tr.nextTxn()
	txn := l.tr.start("txn.arrive")
	before := l.journalStat()
	sp := l.tr.start("core.ArriveMany")
	placed, err = l.ctrl.ArriveMany(sfcsOf(admitted))
	d := sp.stop()
	if res.call(err) != nil {
		return nil, err
	}
	if measured {
		res.layer.add("core.arrive_many_ms", ms(d))
	}
	if l.sh != nil {
		if l.sp.algo == core.AlgoIP {
			res.layer.replan(l.ctrl.LastReplan())
		}
		if err := l.sh.arrive(l, sp.id, d, admitted, placed, before, l.journalStat()); err != nil {
			return nil, err
		}
	}
	if l.rem != nil {
		rd, err := l.rem.mirrorArrivals(l, placed)
		if err != nil {
			return nil, err
		}
		d += rd
	}
	res.churnSeconds += d.Seconds()
	if err := l.settle(admitted, setOf(placed)); err != nil {
		return nil, err
	}
	ttfp, err := l.dp.firstPackets(l, placed, d)
	if err != nil {
		return nil, fmt.Errorf("first packets: %w", err)
	}
	txn.stop()
	if measured {
		res.admitMs = append(res.admitMs, ms(d))
		res.ttfpMs = append(res.ttfpMs, ttfp...)
	}
	return placed, nil
}

// traceBatch folds one offered batch into the trace hash.
func (l *life) traceBatch(tick uint64, batch []*lifecycle.Tenant, placed map[uint32]bool, sloRejected int) {
	l.hash.add(tick, uint64(len(batch)), uint64(sloRejected))
	for _, t := range batch {
		outcome := uint64(outcomeCapacity)
		if placed[t.SFC.Tenant] {
			outcome = outcomePlaced
		} else if lifecycle.MinLatencyNs(l.cfg.Pipeline, len(t.SFC.NFs)) > t.SLONs {
			outcome = outcomeSLO
		}
		l.hash.add(uint64(t.SFC.Tenant), outcome)
	}
}

// journalStat is the live journal file at one instant.
type journalStat struct {
	name string
	size int64
}

// journalStat reads the live journal file's name and size, on traced runs
// only (the shadow WAL is fed the same byte counts). A changed name means a
// snapshot rotation happened in between.
func (l *life) journalStat() journalStat {
	if l.sh == nil {
		return journalStat{}
	}
	var st journalStat
	entries, _ := os.ReadDir(l.dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "wal-") && e.Name() > st.name {
			if info, err := e.Info(); err == nil {
				st = journalStat{e.Name(), info.Size()}
			}
		}
	}
	if st.name != l.journalName {
		if l.journalName != "" {
			l.res.layer.count("core.snapshot_rotations", 1)
		}
		l.journalName = st.name
	}
	return st
}

// crashRecover closes the controller as a crash would leave it (the journal
// is all that survives), then restarts it n times over: recover from the
// journal into an empty switch, reconcile, check the recovered controller
// against the pre-crash one. Recovery writes nothing, so every restart reads
// the same journal; the life continues on the last one.
func (l *life) crashRecover(n int) error {
	res := l.res
	before := stateDigest(l.ctrl.VSwitch().ExportState())
	beforePlaced := sortedIDs(l.ctrl.PlacedTenants())
	if l.tr != nil {
		l.foldTelemetry()
	}
	if err := res.call(l.ctrl.Close()); err != nil {
		return err
	}
	l.ctrl = nil
	if l.tr != nil {
		if err := l.probeJournal(); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		runtime.GC()
		l.tr.nextTxn()
		sp := l.tr.start("core.RecoverSwitch")
		c, err := core.RecoverSwitch(l.dir, nil, l.opts)
		dRecover := sp.stop()
		if res.call(err) != nil {
			return err
		}
		runtime.GC() // replaying the journal left garbage; collect it off the clock
		sp = l.tr.start("core.Reconcile")
		_, err = c.Reconcile()
		dReconcile := sp.stop()
		if res.call(err) == nil {
			err = l.checkRecovered(c, before, beforePlaced)
		}
		if err == nil && l.tr != nil {
			err = l.probeRecovered(c, dRecover)
		}
		if err != nil {
			c.Close()
			return err
		}
		res.recoverMs = append(res.recoverMs, ms(dRecover))
		res.reconcileMs = append(res.reconcileMs, ms(dReconcile))
		if last := i == n-1; last {
			l.ctrl = c
		} else if err := res.call(c.Close()); err != nil {
			return err
		}
	}
	l.dp.rebind()
	if l.sh != nil {
		// The recovered switch was installed cold; give the shadow the same
		// history, or its tables differ from the ones it stands in for.
		return l.sh.resyncSwitch(l)
	}
	return nil
}

// checkRecovered requires a recovered and reconciled controller to place the
// pre-crash tenants on a switch equal to the pre-crash one, and to be at a
// fixed point.
func (l *life) checkRecovered(c *core.Controller, before string, beforePlaced []uint32) error {
	if got := sortedIDs(c.PlacedTenants()); !slices.Equal(got, beforePlaced) {
		return fmt.Errorf("recovered controller places %d tenants, pre-crash placed %d", len(got), len(beforePlaced))
	}
	if stateDigest(c.VSwitch().ExportState()) != before {
		return fmt.Errorf("reconciled switch differs from the pre-crash switch")
	}
	again, err := c.Reconcile()
	if l.res.call(err) != nil {
		return err
	}
	if !again.Clean() {
		return fmt.Errorf("second Reconcile found drift: %+v", again)
	}
	return nil
}

// bulkCycle is the bulk workload's extra work: a full solve of the contended
// candidate set on a fresh in-memory AlgoIP controller (Lagrangian
// decomposition above 512 candidates), then a crash/recover/reconcile of the
// main controller.
func (l *life) bulkCycle() error {
	candidates := sfcsOf(l.bulkGen.Batch(l.sp.live))
	opts := l.opts
	opts.Algorithm = core.AlgoIP
	opts.Pipeline = contendedPipeline(len(candidates))
	opts.Recirc = opts.Pipeline.MaxPasses - 1
	ctrl := core.New(opts)
	runtime.GC()
	l.tr.nextTxn()
	sp := l.tr.start("core.Provision")
	_, err := ctrl.Provision(candidates)
	d := sp.stop()
	if l.res.call(err) != nil {
		return fmt.Errorf("bulk provision: %w", err)
	}
	l.res.provisionMs = append(l.res.provisionMs, ms(d))
	if l.res.ticks < l.sp.minTicks {
		l.res.bulkOffered += len(candidates)
		l.res.bulkPlaced += len(ctrl.PlacedTenants())
	}
	if info := ctrl.LastProvision(); info.FellBack {
		return fmt.Errorf("bulk provision fell back to %v: %v", info.Used, info.Attempts)
	}
	in, a, _, err := ctrl.Snapshot()
	if err != nil {
		return err
	}
	if err := model.Verify(in, a, opts.Consolidate); err != nil {
		return fmt.Errorf("bulk provision: %w", err)
	}
	if l.tr != nil {
		if err := l.probeSolve(in, a, core.AlgoIP, d); err != nil {
			return err
		}
	}
	if err := ctrl.Close(); err != nil {
		return err
	}
	if err := l.crashRecover(1); err != nil {
		return err
	}
	// The full solve's garbage is collected here, not inside the next ticks.
	runtime.GC()
	return nil
}

// verify runs the end-of-life checks: the planner's state satisfies the
// placement model, the replayed traffic agrees with a sequential
// recomputation, and on remote workloads the remote switch holds exactly the
// controller's switch state.
func (l *life) verify() error {
	in, a, _, err := l.ctrl.Snapshot()
	if err != nil {
		return err
	}
	sp := l.tr.start("model.Verify")
	err = model.Verify(in, a, l.opts.Consolidate)
	l.res.layer.add("model.verify_ms", ms(sp.stop()))
	if err != nil {
		return fmt.Errorf("final state: %w", err)
	}
	if got, want := len(l.ctrl.PlacedTenants()), len(l.tenants); got != want {
		return fmt.Errorf("controller places %d tenants, harness tracks %d live", got, want)
	}
	if err := l.dp.checkReplay(l); err != nil {
		return err
	}
	if l.rem != nil {
		return l.rem.checkState(l)
	}
	return nil
}

// close releases everything the life started.
func (l *life) close() {
	if l.dp != nil {
		l.dp.close()
	}
	if l.rem != nil {
		l.rem.close()
	}
	if l.sh != nil {
		l.sh.close()
	}
	if l.ctrl != nil {
		l.ctrl.Close()
	}
}

func sfcsOf(ts []*lifecycle.Tenant) []*vswitch.SFC {
	out := make([]*vswitch.SFC, len(ts))
	for i, t := range ts {
		out[i] = t.SFC
	}
	return out
}

func setOf(ids []uint32) map[uint32]bool {
	m := make(map[uint32]bool, len(ids))
	for _, id := range ids {
		m[id] = true
	}
	return m
}

func keys(m map[uint32]bool) []uint32 {
	out := make([]uint32, 0, len(m))
	for id := range m {
		out = append(out, id)
	}
	return sortedIDs(out)
}

func sortedIDs(ids []uint32) []uint32 {
	slices.Sort(ids)
	return ids
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// dirSize sums the sizes of the files in dir.
func dirSize(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var total int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}
