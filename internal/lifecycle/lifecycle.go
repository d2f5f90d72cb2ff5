// Package lifecycle is the online tenant-churn engine: a deterministic,
// seeded simulation of tenants arriving (Poisson), living (exponential
// TTLs in a timer heap), and departing, driving a real core.Controller
// through its batched write path (ArriveMany / DepartMany) and measuring
// what the paper's §VI never does — steady-state behaviour under
// continuous churn: acceptance ratio, switch utilization, and the
// wall-clock latency of each arrival and departure batch.
//
// The engine follows an Erlang loss model: an arrival the replan cannot
// place is rejected immediately (departed from the waiting set) rather
// than queued, so the live set equals the placed set and the acceptance
// ratio is well-defined. Admission is two-staged, as a real tenant portal
// would be: a latency-SLO check first (is the chain's best achievable
// in-switch latency within the tenant's SLO at all?), then the placement
// itself (do memory and backplane capacity admit it?).
//
// Everything is driven by one seeded RNG on one goroutine against a
// virtual clock, so a fixed seed reproduces the identical admission and
// departure trace — across runs and across solver worker counts — which
// Report.TraceHash fingerprints.
package lifecycle

import (
	"container/heap"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"

	"sfp/internal/core"
	"sfp/internal/model"
	"sfp/internal/nf"
	"sfp/internal/pipeline"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
)

// Config tunes one churn run. The zero value is not runnable; start from
// Smoke() or Bench100k() and override.
type Config struct {
	// Seed drives every random draw (arrivals, TTLs, chain shapes, SLOs).
	Seed int64
	// TargetLive is the steady-state live-tenant population the run fills
	// to and then holds.
	TargetLive int
	// MeanTTL is the mean tenant lifetime in virtual seconds
	// (exponentially distributed).
	MeanTTL float64
	// Tick is the virtual seconds each churn step advances; departures
	// due within a tick batch into one DepartMany, arrivals into one
	// ArriveMany.
	Tick float64
	// Load is the offered-load multiplier: the arrival rate is
	// Load × TargetLive / MeanTTL, so Load = 1 holds the population at
	// TargetLive (Little's law) and Load > 1 overdrives it into the
	// switch's admission limit.
	Load float64
	// FillBatch is the ArriveMany batch size of the initial fill phase.
	FillBatch int
	// WarmTicks churn without measuring (population settling); then
	// MeasureTicks churn with counters and latency recording on.
	WarmTicks, MeasureTicks int

	// Tenant shape: each tenant has users ∈ [UsersMin, UsersMax] and each
	// user a fixed datarate, so demanded bandwidth = users × UserRateGbps
	// (the per-tenant bandwidth model of the paper's §III).
	UsersMin, UsersMax int
	UserRateGbps       float64
	// Chains are uniform in [ChainLenMin, ChainLenMax] NFs with
	// [RuleMin, RuleMax] rules per NF.
	ChainLenMin, ChainLenMax int
	RuleMin, RuleMax         int
	// Each tenant draws a latency SLO uniform in [SLOMinNs, SLOMaxNs];
	// a chain whose best achievable in-switch latency exceeds it is
	// rejected before placement.
	SLOMinNs, SLOMaxNs float64

	// Pipeline sizes the switch. Zero value → scaled DefaultConfig with
	// enough memory blocks for TargetLive tenants of the configured shape.
	Pipeline pipeline.Config
	// Workers is the controller's SolverWorkers knob. The greedy replan
	// path is deterministic at any worker count; the trace hash must not
	// change with it.
	Workers int
	// Dir, when non-empty, makes the controller durable: a write-ahead
	// journal (group commit) in this directory. Empty runs in-memory.
	Dir string
	// SnapshotEvery is the controller's journal rotation threshold
	// (committed records between snapshots). Zero keeps the core default.
	SnapshotEvery int
	// Logf, when set, receives progress lines. Nil is silent.
	Logf func(format string, args ...any)
}

// Smoke is a small configuration for tests and CI: a ~1.5k-tenant
// population with enough churn ticks to reach and hold steady state in
// well under a minute.
func Smoke() Config {
	return Config{
		Seed:         1,
		TargetLive:   1500,
		MeanTTL:      1000,
		Tick:         10,
		Load:         1,
		FillBatch:    500,
		WarmTicks:    5,
		MeasureTicks: 15,
	}
}

// Bench100k is the headline configuration: hold one hundred thousand live
// tenants under continuous churn. The switch is scaled up (more memory
// blocks, same latency model) so that memory, not the experiment harness,
// is the binding constraint.
func Bench100k() Config {
	c := Smoke()
	c.TargetLive = 100_000
	c.FillBatch = 5000
	c.WarmTicks = 2
	c.MeasureTicks = 10
	// Rotate the journal several times during the run so the off-lock
	// snapshot path is part of what the benchmark measures.
	c.SnapshotEvery = 8
	return c
}

// ControllerOptions returns the core.Options a Run with this config uses,
// so callers can Recover the journal a durable run left behind.
func (c Config) ControllerOptions() core.Options {
	c = c.WithDefaults()
	return core.Options{
		Pipeline:      c.Pipeline,
		Consolidate:   true,
		Recirc:        c.Pipeline.MaxPasses - 1,
		Algorithm:     core.AlgoGreedy,
		Seed:          c.Seed,
		SolverWorkers: c.Workers,
		SnapshotEvery: c.SnapshotEvery,
	}
}

// WithDefaults returns the config with every zero field replaced by its
// default, exactly as Run resolves it.
func (c Config) WithDefaults() Config {
	if c.TargetLive == 0 {
		c.TargetLive = 1500
	}
	if c.MeanTTL == 0 {
		c.MeanTTL = 1000
	}
	if c.Tick == 0 {
		c.Tick = 10
	}
	if c.Load == 0 {
		c.Load = 1
	}
	if c.FillBatch == 0 {
		c.FillBatch = 500
	}
	if c.MeasureTicks == 0 {
		c.MeasureTicks = 15
	}
	if c.UsersMin == 0 {
		c.UsersMin = 1
	}
	if c.UsersMax == 0 {
		c.UsersMax = 4
	}
	if c.UserRateGbps == 0 {
		c.UserRateGbps = 0.001 // 1 Mbps per user
	}
	if c.ChainLenMin == 0 {
		c.ChainLenMin = 1
	}
	if c.ChainLenMax == 0 {
		c.ChainLenMax = 3
	}
	if c.RuleMin == 0 {
		c.RuleMin = 1
	}
	if c.RuleMax == 0 {
		c.RuleMax = 3
	}
	if c.SLOMinNs == 0 {
		c.SLOMinNs = 300
	}
	if c.SLOMaxNs == 0 {
		c.SLOMaxNs = 500
	}
	if c.Pipeline.Stages == 0 {
		c.Pipeline = SizedPipeline(c.TargetLive, c.ChainLenMax, c.RuleMax)
	}
	return c
}

// SizedPipeline scales DefaultConfig's memory so that n tenants of the
// given worst-case shape fit with headroom: same 8-stage latency model,
// larger blocks-per-stage budget. Bandwidth capacity is left at the
// 400 Gbps default — with per-user megabit rates that admits well over
// 100k tenants, leaving table memory as the contended resource.
func SizedPipeline(n, chainLen, rules int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	// Worst-case entries: every tenant maxes chain length and rule count,
	// plus 50% block-rounding slack, spread across the stages.
	need := n * chainLen * rules
	perStage := (need + need/2) / cfg.Stages
	blocks := (perStage + cfg.EntriesPerBlock - 1) / cfg.EntriesPerBlock
	if blocks > cfg.BlocksPerStage {
		cfg.BlocksPerStage = blocks
	}
	return cfg
}

// Gen deterministically synthesizes the tenant stream: chain shapes, user
// counts, SLOs, and TTLs, from its own seeded RNG. It is shared by the
// in-process engine and sfpload's live-switch churn mode so both replay
// the identical workload for a given seed.
type Gen struct {
	cfg  Config
	rng  *rand.Rand
	next uint32
}

// Tenant is one synthesized arrival: the runnable SFC, its latency SLO,
// and its lifetime.
type Tenant struct {
	SFC   *vswitch.SFC
	SLONs float64
	// TTL is the tenant's lifetime in virtual seconds.
	TTL float64
	// Users is the drawn user count (bandwidth = Users × UserRateGbps).
	Users int
}

// NewGen creates the generator for a config. Tenant IDs start at 1.
func NewGen(cfg Config) *Gen {
	cfg = cfg.WithDefaults()
	return &Gen{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
}

// Next synthesizes the next tenant.
func (g *Gen) Next() *Tenant {
	g.next++
	c := g.cfg
	users := c.UsersMin + g.rng.Intn(c.UsersMax-c.UsersMin+1)
	chainLen := c.ChainLenMin + g.rng.Intn(c.ChainLenMax-c.ChainLenMin+1)
	ch := &model.Chain{
		ID:            int(g.next),
		BandwidthGbps: float64(users) * c.UserRateGbps,
	}
	for j := 0; j < chainLen; j++ {
		ch.NFs = append(ch.NFs, model.ChainNF{
			Type:  1 + g.rng.Intn(nf.TypeCount),
			Rules: c.RuleMin + g.rng.Intn(c.RuleMax-c.RuleMin+1),
		})
	}
	return &Tenant{
		SFC:   traffic.ToSFC(g.rng, ch, 0),
		SLONs: c.SLOMinNs + g.rng.Float64()*(c.SLOMaxNs-c.SLOMinNs),
		TTL:   expDraw(g.rng, c.MeanTTL),
		Users: users,
	}
}

// Batch synthesizes n tenants.
func (g *Gen) Batch(n int) []*Tenant {
	out := make([]*Tenant, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, g.Next())
	}
	return out
}

// Poisson draws the tick's arrival count (Knuth's method; mean is small
// per tick, so the multiplication loop is cheap).
func (g *Gen) Poisson(mean float64) int {
	return poissonDraw(g.rng, mean)
}

func poissonDraw(rng *rand.Rand, mean float64) int {
	if mean <= 0 {
		return 0
	}
	// For large means, split to keep exp(-mean) representable.
	if mean > 500 {
		half := mean / 2
		return poissonDraw(rng, half) + poissonDraw(rng, mean-half)
	}
	l := math.Exp(-mean)
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

func expDraw(rng *rand.Rand, mean float64) float64 {
	u := rng.Float64()
	if u >= 1 {
		u = math.Nextafter(1, 0)
	}
	return -mean * math.Log(1-u)
}

// MinLatencyNs is the best in-switch latency any placement of an n-table
// chain can achieve on the configured pipeline: the fixed parser/deparser
// cost, every table applied once, full-pipeline traversal per pass, and
// the minimum recirculation count (a pass applies at most one table per
// stage).
func MinLatencyNs(cfg pipeline.Config, chainLen int) float64 {
	passes := (chainLen + cfg.Stages - 1) / cfg.Stages
	if passes < 1 {
		passes = 1
	}
	return cfg.ParserNs + cfg.DeparserNs +
		float64(chainLen)*cfg.PerTableNs +
		float64(passes*cfg.Stages)*cfg.PerStageNs +
		float64(passes-1)*cfg.RecircNs
}

// expiry is one scheduled departure in the timer heap.
type expiry struct {
	at     float64
	tenant uint32
}

type expiryHeap []expiry

func (h expiryHeap) Len() int { return len(h) }
func (h expiryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].tenant < h[j].tenant // deterministic tie-break
}
func (h expiryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *expiryHeap) Push(x any)   { *h = append(*h, x.(expiry)) }
func (h *expiryHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }
func (h expiryHeap) peek() expiry  { return h[0] }

// Report is what one churn run measured.
type Report struct {
	// Config echo (after defaults) for reproducibility.
	Seed       int64
	TargetLive int
	Load       float64
	Workers    int

	// Population.
	LiveAtEnd int
	MeanLive  float64
	// SteadyState: the measured mean population stayed within 5% of
	// TargetLive (only meaningful at Load ≥ 1).
	SteadyState bool

	// Admission counters over the measurement window.
	Offered     int
	Accepted    int
	SLORejected int
	CapRejected int
	// AcceptanceRatio = Accepted / Offered.
	AcceptanceRatio float64

	// Switch utilization at the end of the run.
	BandwidthUtil float64
	MemoryUtil    float64

	// Wall-clock latency of each ArriveMany / DepartMany batch call
	// during the measurement window.
	ArriveP50, ArriveP99 time.Duration
	DepartP50, DepartP99 time.Duration

	// Departure totals over the measurement window.
	Departed int

	// TraceHash fingerprints the full admission/departure trace (fill and
	// churn, warm ticks included). Identical seed + config ⇒ identical
	// hash, at any Workers count.
	TraceHash uint64

	// Ticks actually churned (warm + measured).
	Ticks int
	// WallSeconds is the total run time (fill + churn).
	WallSeconds float64
}

// Engine drives one controller through the configured churn.
type Engine struct {
	cfg   Config
	gen   *Gen
	ctrl  *core.Controller
	heap  expiryHeap
	now   float64
	trace *traceHasher
	live  int
}

// traceHasher folds the admission/departure trace into an FNV-64a hash.
type traceHasher struct{ h uint64 }

func newTraceHasher() *traceHasher {
	f := fnv.New64a()
	return &traceHasher{h: f.Sum64()}
}

func (t *traceHasher) u64(vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.BigEndian.PutUint64(b[:], v)
		for _, c := range b {
			t.h ^= uint64(c)
			t.h *= 1099511628211
		}
	}
}

// Run executes the configured churn and reports. The controller is
// created (durable if cfg.Dir is set), filled to TargetLive, churned for
// WarmTicks+MeasureTicks, and closed.
func Run(cfg Config) (*Report, error) {
	cfg = cfg.WithDefaults()
	e := &Engine{cfg: cfg, gen: NewGen(cfg), trace: newTraceHasher()}

	opts := cfg.ControllerOptions()
	var err error
	if cfg.Dir != "" {
		e.ctrl, err = core.Recover(cfg.Dir, opts)
		if err != nil {
			return nil, err
		}
	} else {
		e.ctrl = core.New(opts)
	}
	defer e.ctrl.Close()

	start := time.Now()
	rep := &Report{Seed: cfg.Seed, TargetLive: cfg.TargetLive, Load: cfg.Load, Workers: cfg.Workers}
	if err := e.fill(rep); err != nil {
		return nil, err
	}
	if err := e.churn(rep); err != nil {
		return nil, err
	}

	rep.LiveAtEnd = e.live
	rep.TraceHash = e.trace.h
	rep.WallSeconds = time.Since(start).Seconds()
	rep.BandwidthUtil = e.ctrl.VSwitch().BandwidthUsed() / cfg.Pipeline.CapacityGbps
	rep.MemoryUtil = memoryUtil(e.ctrl.VSwitch(), cfg.Pipeline)
	if rep.Offered > 0 {
		rep.AcceptanceRatio = float64(rep.Accepted) / float64(rep.Offered)
	}
	rep.SteadyState = math.Abs(rep.MeanLive-float64(cfg.TargetLive)) <= 0.05*float64(cfg.TargetLive)
	return rep, nil
}

func memoryUtil(v *vswitch.VSwitch, cfg pipeline.Config) float64 {
	total := cfg.Stages * cfg.BlocksPerStage
	if total == 0 {
		return 0
	}
	used := 0
	for _, s := range v.Pipe.Stages {
		used += s.BlocksUsed()
	}
	return float64(used) / float64(total)
}

// fill pumps arrival batches until the live population reaches
// TargetLive (or the switch refuses an entire batch — capacity bound
// below target). Fill arrivals happen at virtual time 0; their TTLs
// schedule the initial departure wave.
func (e *Engine) fill(rep *Report) error {
	cfg := e.cfg
	first := true
	for e.live < cfg.TargetLive {
		n := cfg.FillBatch
		if left := cfg.TargetLive - e.live; n > left {
			n = left
		}
		batch := e.gen.Batch(n)
		admitted, sloRejected := e.sloFilter(batch)
		placed, err := e.offer(admitted, first)
		if err != nil {
			return err
		}
		first = false
		e.traceBatch(math.MaxUint64, batch, placed, sloRejected)
		if len(placed) == 0 {
			// Nothing admitted (the switch is full below the target, or a
			// pathological SLO config rejects everything): stop filling
			// rather than spinning.
			e.logf("lifecycle: fill saturated at %d live (target %d)", e.live, cfg.TargetLive)
			break
		}
	}
	e.logf("lifecycle: filled to %d live tenants", e.live)
	return nil
}

// sloFilter splits a batch into placement candidates and SLO rejections.
func (e *Engine) sloFilter(batch []*Tenant) (admitted []*Tenant, rejected int) {
	for _, t := range batch {
		if MinLatencyNs(e.cfg.Pipeline, len(t.SFC.NFs)) > t.SLONs {
			rejected++
			continue
		}
		admitted = append(admitted, t)
	}
	return admitted, rejected
}

// offer pushes one admitted batch at the controller: Provision for the
// very first batch of a fresh controller, ArriveMany after. Placed
// tenants get their departure scheduled; refused ones are departed
// immediately (loss model). Returns the placed tenant set.
func (e *Engine) offer(admitted []*Tenant, first bool) (map[uint32]bool, error) {
	placed := make(map[uint32]bool)
	if len(admitted) == 0 {
		return placed, nil
	}
	sfcs := make([]*vswitch.SFC, len(admitted))
	byTenant := make(map[uint32]*Tenant, len(admitted))
	for i, t := range admitted {
		sfcs[i] = t.SFC
		byTenant[t.SFC.Tenant] = t
	}
	if first && !e.ctrl.Provisioned() {
		if _, err := e.ctrl.Provision(sfcs); err != nil {
			return nil, fmt.Errorf("lifecycle: provision: %w", err)
		}
		for _, t := range e.ctrl.PlacedTenants() {
			placed[t] = true
		}
	} else {
		ts, err := e.ctrl.ArriveMany(sfcs)
		if err != nil {
			return nil, fmt.Errorf("lifecycle: arrive: %w", err)
		}
		for _, t := range ts {
			placed[t] = true
		}
	}
	var refused []uint32
	for _, t := range admitted {
		tn := t.SFC.Tenant
		if placed[tn] {
			heap.Push(&e.heap, expiry{at: e.now + t.TTL, tenant: tn})
			e.live++
		} else {
			refused = append(refused, tn)
		}
	}
	if len(refused) > 0 {
		sort.Slice(refused, func(i, j int) bool { return refused[i] < refused[j] })
		if err := e.ctrl.DepartMany(refused); err != nil {
			return nil, fmt.Errorf("lifecycle: reject departure: %w", err)
		}
	}
	return placed, nil
}

// churn advances the virtual clock tick by tick: expire due tenants in
// one DepartMany, then offer the tick's Poisson arrivals in one
// ArriveMany. Counters and batch latencies are recorded only during the
// measurement window; the trace hash covers everything.
func (e *Engine) churn(rep *Report) error {
	cfg := e.cfg
	rate := cfg.Load * float64(cfg.TargetLive) / cfg.MeanTTL
	var arriveNs, departNs []float64
	var liveSum float64
	total := cfg.WarmTicks + cfg.MeasureTicks

	for tick := 0; tick < total; tick++ {
		e.now += cfg.Tick
		measuring := tick >= cfg.WarmTicks

		// Departures due this tick, in deterministic heap order.
		var due []uint32
		for len(e.heap) > 0 && e.heap.peek().at <= e.now {
			due = append(due, heap.Pop(&e.heap).(expiry).tenant)
		}
		if len(due) > 0 {
			t0 := time.Now()
			if err := e.ctrl.DepartMany(due); err != nil {
				return fmt.Errorf("lifecycle: depart tick %d: %w", tick, err)
			}
			dt := time.Since(t0)
			e.live -= len(due)
			if measuring {
				departNs = append(departNs, float64(dt.Nanoseconds()))
				rep.Departed += len(due)
			}
		}

		// Arrivals.
		n := e.gen.Poisson(rate * cfg.Tick)
		batch := e.gen.Batch(n)
		admitted, sloRejected := e.sloFilter(batch)
		t0 := time.Now()
		placed, err := e.offer(admitted, false)
		if err != nil {
			return fmt.Errorf("lifecycle: tick %d: %w", tick, err)
		}
		dt := time.Since(t0)
		e.traceBatch(uint64(tick), batch, placed, sloRejected)
		e.traceDepartures(due)

		if measuring {
			if len(batch) > 0 {
				arriveNs = append(arriveNs, float64(dt.Nanoseconds()))
			}
			rep.Offered += len(batch)
			rep.Accepted += len(placed)
			rep.SLORejected += sloRejected
			rep.CapRejected += len(admitted) - len(placed)
			liveSum += float64(e.live)
		}
		rep.Ticks++
	}
	if cfg.MeasureTicks > 0 {
		rep.MeanLive = liveSum / float64(cfg.MeasureTicks)
	}
	rep.ArriveP50, rep.ArriveP99 = percentile(arriveNs, 0.50), percentile(arriveNs, 0.99)
	rep.DepartP50, rep.DepartP99 = percentile(departNs, 0.50), percentile(departNs, 0.99)
	return nil
}

// traceBatch folds one offered batch into the trace hash: tick, each
// tenant's ID, and its admission outcome (0 placed, 1 SLO-rejected by
// construction of the admitted set, 2 capacity-rejected).
func (e *Engine) traceBatch(tick uint64, batch []*Tenant, placed map[uint32]bool, sloRejected int) {
	e.trace.u64(tick, uint64(len(batch)), uint64(sloRejected))
	for _, t := range batch {
		tn := t.SFC.Tenant
		outcome := uint64(2)
		if placed[tn] {
			outcome = 0
		} else if MinLatencyNs(e.cfg.Pipeline, len(t.SFC.NFs)) > t.SLONs {
			outcome = 1
		}
		e.trace.u64(uint64(tn), outcome)
	}
}

func (e *Engine) traceDepartures(due []uint32) {
	e.trace.u64(uint64(len(due)))
	for _, t := range due {
		e.trace.u64(uint64(t))
	}
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// percentile returns the p-quantile (nearest-rank) of the samples as a
// duration; zero for an empty set.
func percentile(samples []float64, p float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	idx := int(math.Ceil(p*float64(len(s)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(s) {
		idx = len(s) - 1
	}
	return time.Duration(s[idx])
}
