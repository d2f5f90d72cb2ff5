package placement

// Lagrangian decomposition for the full placement program ("SFP-LD").
//
// The exact IP's cost grows superlinearly with the tenant count because the
// root LP couples every chain through the per-stage memory rows (Eq. 11/25)
// and the shared backplane row (Eq. 12). Those are the *only* coupling
// constraints: everything else is local to one chain, and the physical
// layout is free (rules are charged where they are placed, and Eq. 4 is
// satisfiable by fill-in on stage 0 — see emptyAssignment/SolveGreedy).
// Pricing the coupling rows with multipliers λ_s ≥ 0 (per physical stage)
// and μ ≥ 0 (backplane) therefore separates the program into L independent
// per-chain subproblems
//
//	max( 0,  max_{j ↦ k_j strictly increasing}
//	         T_l·J_l − Σ_j λ_{k_j mod S}·load_jl − μ·T_l·(⌊k_last/S⌋+1) )
//
// each of which is an exact O(J_l·K) dynamic program over the virtual
// pipeline (not an LP): choose strictly increasing virtual stages within the
// Eq. 8 windows, minimizing priced memory plus priced recirculation. By weak
// duality
//
//	L(λ,μ) = Σ_l subproblem_l + Σ_s λ_s·cap_s + μ·C  ≥  OPT
//
// for every λ,μ ≥ 0 (model.BoxLoad/StageCapacity define load/cap; under
// consolidation cap is the valid Σ rules ≤ B·E surrogate). The solver
// minimizes L by projected subgradient with a step-halving (Held-Karp
// style) schedule, closes each iteration with a greedy primal repair that
// commits priced chains under the *exact* feasibility accounting
// (greedyState: block ceilings, consolidation sharing, backplane), and
// returns the best feasible placement found together with the best dual
// bound — every answer ships with a certified optimality gap instead of the
// exact IP's bit-for-bit optimum. Results are deterministic for a fixed
// instance at any Workers count: parallel pricing writes per-chain slots
// and every reduction runs in ascending chain order.

import (
	"fmt"
	"math"
	"sync"
	"time"

	"sfp/internal/model"
)

// DefaultDecomposeAbove is the chain count at which full solves
// (core initial provisioning, MaybeReconfigure) switch from the exact IP to
// the decomposition by default. Below it the exact solve is comfortably
// fast and keeps its proven optimum; above it the IP's root LP alone
// dominates any reasonable time budget.
const DefaultDecomposeAbove = 512

// DecomposeOptions tunes SolveDecomposed.
type DecomposeOptions struct {
	// Build selects the formulation (only Consolidate matters here: it
	// picks the memory model the pricing and the repair account against).
	Build model.BuildOptions
	// TimeLimit bounds the subgradient loop (0 = none). The best feasible
	// placement and bound found so far are returned on expiry.
	TimeLimit time.Duration
	// MaxIters bounds subgradient iterations (0 = default 300).
	MaxIters int
	// TargetGap stops the loop once (bound − objective)/objective falls
	// below it (0 = default 0.01).
	TargetGap float64
	// Workers sets the parallel pricing worker count (0 or 1 = serial).
	// The result is identical at any worker count.
	Workers int
}

func (o DecomposeOptions) withDefaults() DecomposeOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 300
	}
	if o.TargetGap == 0 {
		o.TargetGap = 0.01
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// decomposer holds the per-instance pricing data and reusable buffers.
type decomposer struct {
	in   *model.Instance
	cons bool
	S, K int

	// Per-chain constants.
	profit  []float64   // T_l · J_l
	bw      []float64   // T_l
	loads   [][]float64 // loads[l][j] in StageCapacity units
	offs    []int       // flat offsets into stageBuf (Σ J)
	canFit  []bool      // chain admissible in *some* relaxed placement
	cap     float64     // per-stage capacity in load units
	backCap float64     // C

	// Multipliers.
	lambda []float64
	mu     float64

	// Pricing output, indexed by chain.
	val      []float64
	priced   []bool
	stageBuf []int32 // priced stages, flat at offs[l]

	// Repair state (reused across iterations).
	order    []int
	byVal    radixOrder
	metric   []int
	repStage []int32 // repaired stages, flat at offs[l]
	repDep   []bool
	repX     [][]bool
	ints     []int // scratch stages for greedyState calls
}

// SolveDecomposed solves the full placement by Lagrangian decomposition
// with parallel per-chain pricing and a greedy primal repair. The returned
// Result carries a feasible (verified) assignment, the Lagrangian dual
// bound in Bound, and the certified relative gap in Gap.
func SolveDecomposed(in *model.Instance, opts DecomposeOptions) (*Result, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	d := newDecomposer(in, opts.Build.Consolidate)

	// Initial primal: Algorithm 2. Its objective seeds the Polyak step
	// sizing and guarantees the solver never returns worse than greedy.
	bestA := emptyAssignment(in)
	bestObj := 0.0
	if gr, err := SolveGreedy(in, GreedyOptions{Consolidate: d.cons}); err == nil {
		bestA = gr.Assignment
		bestObj = gr.Objective
	}
	bestDual := math.Inf(1)

	var deadline time.Time
	if opts.TimeLimit > 0 {
		deadline = start.Add(opts.TimeLimit)
	}

	theta := 2.0
	noImprove := 0
	iters := 0
	use := make([]float64, d.S)
	for it := 0; it < opts.MaxIters; it++ {
		iters = it + 1
		d.priceAll(opts.Workers)

		// Dual value and subgradient at the priced selection.
		dual := d.mu * d.backCap
		for s := 0; s < d.S; s++ {
			dual += d.lambda[s] * d.cap
			use[s] = 0
		}
		backUse := 0.0
		for l := range d.in.Chains {
			if !d.priced[l] {
				continue
			}
			dual += d.val[l]
			st := d.stageBuf[d.offs[l]:d.offs[l+1]]
			for j, k := range st {
				use[int(k)%d.S] += d.loads[l][j]
			}
			backUse += d.bw[l] * float64(int(st[len(st)-1])/d.S+1)
		}
		// Tolerance scales with the candidate, not bestDual: the latter
		// starts at +Inf and Inf−Inf is NaN, which would reject every update.
		if dual < bestDual-1e-9*math.Max(1, math.Abs(dual)) {
			bestDual = dual
			noImprove = 0
		} else {
			noImprove++
			if noImprove >= 5 {
				theta /= 2
				noImprove = 0
			}
		}

		// Primal repair: exact-feasibility commit of the priced selection,
		// then first-fit fill. The assignment is only materialized when the
		// repair actually improves on the best placement so far.
		if obj := d.repair(); obj > bestObj+1e-12 {
			bestObj = obj
			bestA = d.materialize()
		}

		if relGap(bestDual, bestObj) <= opts.TargetGap || theta < 1e-4 {
			break
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			break
		}

		// Projected subgradient step, Polyak-sized against the best primal.
		gnorm2 := 0.0
		for s := 0; s < d.S; s++ {
			g := use[s] - d.cap
			gnorm2 += g * g
		}
		gBack := backUse - d.backCap
		gnorm2 += gBack * gBack
		if gnorm2 < 1e-18 {
			break // stationary: priced selection respects every relaxed row
		}
		step := theta * (dual - bestObj) / gnorm2
		if step <= 0 {
			step = 1e-12
		}
		for s := 0; s < d.S; s++ {
			d.lambda[s] = math.Max(0, d.lambda[s]+step*(use[s]-d.cap))
		}
		d.mu = math.Max(0, d.mu+step*gBack)
	}

	if bestDual < bestObj {
		// The incumbent is a true lower bound; never report a bound below it.
		bestDual = bestObj
	}
	if err := model.Verify(in, bestA, d.cons); err != nil {
		return nil, fmt.Errorf("placement: decomposed solution failed verification: %w", err)
	}
	m := model.ComputeMetrics(in, bestA, d.cons)
	return &Result{
		Assignment: bestA,
		Metrics:    m,
		Objective:  m.Objective,
		Bound:      bestDual,
		Gap:        relGap(bestDual, m.Objective),
		DualIters:  iters,
		Elapsed:    time.Since(start),
		Status:     "decomposed",
	}, nil
}

// relGap is the certified relative optimality gap of a (bound, objective)
// pair, with the usual guard for a zero objective.
func relGap(bound, obj float64) float64 {
	if bound <= obj {
		return 0
	}
	return (bound - obj) / math.Max(obj, 1e-9)
}

func newDecomposer(in *model.Instance, cons bool) *decomposer {
	d := &decomposer{
		in:      in,
		cons:    cons,
		S:       in.Switch.Stages,
		K:       in.K(),
		cap:     model.StageCapacity(in.Switch, cons),
		backCap: in.Switch.CapacityGbps,
		lambda:  make([]float64, in.Switch.Stages),
	}
	L := len(in.Chains)
	d.profit = make([]float64, L)
	d.bw = make([]float64, L)
	d.loads = make([][]float64, L)
	d.canFit = make([]bool, L)
	d.offs = make([]int, L+1)
	longest := 0
	for l, c := range in.Chains {
		longest = max(longest, c.Len())
		d.profit[l] = model.ChainProfit(c)
		d.bw[l] = c.BandwidthGbps
		d.offs[l+1] = d.offs[l] + c.Len()
		loads := make([]float64, c.Len())
		// A chain whose single box overflows a whole stage, whose bandwidth
		// exceeds the backplane, or whose length exceeds the virtual
		// pipeline can never deploy; excluding it from pricing adds only
		// constraints the original program implies, so the bound stays
		// valid (and tighter).
		fit := c.Len() <= d.K && c.BandwidthGbps <= d.backCap
		for j, b := range c.NFs {
			loads[j] = model.BoxLoad(b, in.Switch, cons)
			if loads[j] > d.cap {
				fit = false
			}
		}
		d.loads[l] = loads
		d.canFit[l] = fit
	}
	d.val = make([]float64, L)
	d.priced = make([]bool, L)
	d.stageBuf = make([]int32, d.offs[L])
	d.repStage = make([]int32, d.offs[L])
	d.repDep = make([]bool, L)
	d.ints = make([]int, longest)
	d.repX = make([][]bool, in.NumTypes)
	for i := range d.repX {
		d.repX[i] = make([]bool, d.S)
	}
	d.metric = sortChainsByMetric(in)
	return d
}

// priceScratch is one worker's DP workspace.
type priceScratch struct {
	fPrev, fCur []float64
	parent      []int32
}

// priceAll solves every chain subproblem at the current multipliers.
// Workers > 1 partitions the chains into contiguous ranges; per-chain
// outputs land in disjoint slots, so the result is order-independent.
func (d *decomposer) priceAll(workers int) {
	L := len(d.in.Chains)
	if workers > L {
		workers = L
	}
	if workers <= 1 {
		sc := &priceScratch{}
		for l := 0; l < L; l++ {
			d.priceChain(l, sc)
		}
		return
	}
	var wg sync.WaitGroup
	chunk := (L + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > L {
			hi = L
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			sc := &priceScratch{}
			for l := lo; l < hi; l++ {
				d.priceChain(l, sc)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// priceChain solves chain l's subproblem exactly: the minimum-priced
// strictly increasing virtual-stage walk (Eq. 8 windows), O(J·K) via a
// running prefix-min, deterministic tie-breaking toward earlier stages.
func (d *decomposer) priceChain(l int, sc *priceScratch) {
	d.priced[l] = false
	d.val[l] = 0
	if !d.canFit[l] {
		return
	}
	c := d.in.Chains[l]
	J, K, S := c.Len(), d.K, d.S
	if cap(sc.fPrev) < K {
		sc.fPrev = make([]float64, K)
		sc.fCur = make([]float64, K)
	}
	if cap(sc.parent) < J*K {
		sc.parent = make([]int32, J*K)
	}
	fPrev, fCur := sc.fPrev[:K], sc.fCur[:K]
	parent := sc.parent[:J*K]

	// Layer 0: box 0 may sit on k ∈ [0, K−J].
	hi0 := K - J
	for k := 0; k <= hi0; k++ {
		fPrev[k] = d.lambda[k%S] * d.loads[l][0]
		parent[k] = -1
	}
	for j := 1; j < J; j++ {
		hi := K - J + j
		best := math.Inf(1)
		bestK := int32(-1)
		for k := j; k <= hi; k++ {
			if fPrev[k-1] < best {
				best = fPrev[k-1]
				bestK = int32(k - 1)
			}
			fCur[k] = best + d.lambda[k%S]*d.loads[l][j]
			parent[j*K+k] = bestK
		}
		fPrev, fCur = fCur, fPrev
	}

	// Close with the priced recirculation term; ties pick the earliest
	// final stage (fewest passes).
	bestVal := math.Inf(-1)
	bestK := -1
	for k := J - 1; k < K; k++ {
		v := d.profit[l] - fPrev[k] - d.mu*d.bw[l]*float64(k/S+1)
		if v > bestVal+1e-15 {
			bestVal = v
			bestK = k
		}
	}
	if bestK < 0 || bestVal <= 1e-9 {
		return
	}
	d.val[l] = bestVal
	d.priced[l] = true
	st := d.stageBuf[d.offs[l]:d.offs[l+1]]
	k := int32(bestK)
	for j := J - 1; j >= 0; j-- {
		st[j] = k
		k = parent[j*K+int(k)]
	}
}

// commitAt places chain l at the given stages under exact accounting,
// mutating g in place; on any violation g is left unchanged and false is
// returned.
func (d *decomposer) commitAt(g *greedyState, l int, stages []int32) bool {
	st := d.ints[:len(stages)]
	for j, k := range stages {
		st[j] = int(k)
	}
	return g.commit(d.in.Chains[l], st)
}

// commitFirstFit is commitAt's fallback: greedy's ascending first-fit scan.
// The chosen stages are written into out.
func (d *decomposer) commitFirstFit(g *greedyState, l int, out []int32) bool {
	st := d.ints[:len(out)]
	if !g.tryChain(d.in.Chains[l], st) {
		return false
	}
	for j, k := range st {
		out[j] = int32(k)
	}
	return true
}

// repair rounds the priced selection into a feasible placement: priced
// chains commit at their subproblem stages in descending Lagrangian-profit
// order (exact block/backplane accounting, first-fit fallback), then every
// remaining chain gets a first-fit attempt in Eq. 13 metric order. Returns
// the Eq. 1 objective; materialize turns the retained repair buffers into
// an Assignment when the caller adopts the iteration.
func (d *decomposer) repair() float64 {
	d.order = d.order[:0]
	for l := range d.in.Chains {
		d.repDep[l] = false
		if d.priced[l] {
			d.order = append(d.order, l)
		}
	}
	d.byVal.sort(d.order, d.val)
	g := newGreedyState(d.in, d.cons)
	obj := 0.0
	for _, l := range d.order {
		st := d.repStage[d.offs[l]:d.offs[l+1]]
		copy(st, d.stageBuf[d.offs[l]:d.offs[l+1]])
		if d.commitAt(g, l, st) || d.commitFirstFit(g, l, st) {
			d.repDep[l] = true
			obj += d.profit[l]
		}
	}
	for _, l := range d.metric {
		if d.priced[l] || !d.canFit[l] {
			continue
		}
		st := d.repStage[d.offs[l]:d.offs[l+1]]
		if d.commitFirstFit(g, l, st) {
			d.repDep[l] = true
			obj += d.profit[l]
		}
	}
	for i := range g.X {
		copy(d.repX[i], g.X[i])
	}
	return obj
}

// materialize builds the Assignment of the most recent repair (stages of
// admitted chains, committed layout, Eq. 4 fill-in for unused types).
func (d *decomposer) materialize() *model.Assignment {
	a := model.NewAssignment(d.in)
	for l := range d.in.Chains {
		if !d.repDep[l] {
			continue
		}
		st := d.repStage[d.offs[l]:d.offs[l+1]]
		for j, k := range st {
			a.Stages[l][j] = int(k)
		}
	}
	for i := range d.repX {
		copy(a.X[i], d.repX[i])
		present := false
		for s := range a.X[i] {
			present = present || a.X[i][s]
		}
		if !present {
			a.X[i][0] = true
		}
	}
	return a
}

// radixOrder is a stable LSD radix sort of chain indices by value,
// descending, with buffers reused across calls.
type radixOrder struct {
	keys, keyBuf []uint64
	idxBuf       []int
}

// sort reorders idx, which must be in ascending order, by val[l]
// descending, ties in ascending index. For finite values > 0 the bit
// pattern of a float64 orders like its value, so the keys ^bits sort
// ascending into value-descending order, and stability keeps equal values
// in index order: exactly the order of a comparison sort on (val desc,
// index asc), in O(n) instead of O(n log n). Byte positions where every
// key has the same digit are skipped.
func (r *radixOrder) sort(idx []int, val []float64) {
	n := len(idx)
	if n < 2 {
		return
	}
	if cap(r.keys) < n {
		r.keys = make([]uint64, n)
		r.keyBuf = make([]uint64, n)
		r.idxBuf = make([]int, n)
	}
	keys, keyBuf, src, dst := r.keys[:n], r.keyBuf[:n], idx, r.idxBuf[:n]
	var count [8][256]int
	for i, l := range idx {
		k := ^math.Float64bits(val[l])
		keys[i] = k
		for p := range count {
			count[p][byte(k>>(8*p))]++
		}
	}
	for p := range count {
		c := &count[p]
		if c[byte(keys[0]>>(8*p))] == n {
			continue
		}
		sum := 0
		for b, m := range c {
			c[b] = sum
			sum += m
		}
		for i, k := range keys {
			b := byte(k >> (8 * p))
			keyBuf[c[b]], dst[c[b]] = k, src[i]
			c[b]++
		}
		keys, keyBuf, src, dst = keyBuf, keys, dst, src
	}
	if &src[0] != &idx[0] {
		copy(idx, src)
	}
}
