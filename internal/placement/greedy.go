package placement

import (
	"sort"
	"time"

	"sfp/internal/model"
)

// GreedyOptions tunes SolveGreedy.
type GreedyOptions struct {
	// Consolidate matches the memory model used for accounting (Eq. 11
	// when true, Eq. 25 when false).
	Consolidate bool
	// Pinned, when set, pre-commits already-placed chains (non-negative
	// stages) and their physical layout; greedy then only places the
	// remaining chains into the residual resources. This is the runtime
	// update's incremental heuristic (§V-E with Algorithm 2).
	Pinned *model.Assignment
}

// greedyState tracks the resources the greedy algorithm consumes as it
// commits chains. SolveGreedy builds one from scratch per call; the Updater
// retains one across replans, patched per admission and departure.
type greedyState struct {
	in   *model.Instance
	cons bool
	// X is the growing physical layout.
	X [][]bool
	// rules[i][s] is the total rules of type i+1 placed on stage s
	// (consolidated accounting).
	rules [][]int
	// blocks[s] is block usage under non-consolidated accounting.
	blocks []int
	// capUsed is the Eq. 12 backplane load.
	capUsed float64
	// capSum is the compensated total behind capUsed in a retained state,
	// so millions of admissions and departures do not drift the load
	// (SolveGreedy leaves it unused and sums capUsed directly).
	capSum model.Sum
}

func newGreedyState(in *model.Instance, cons bool) *greedyState {
	g := &greedyState{in: in, cons: cons}
	g.X = make([][]bool, in.NumTypes)
	g.rules = make([][]int, in.NumTypes)
	for i := range g.X {
		g.X[i] = make([]bool, in.Switch.Stages)
		g.rules[i] = make([]int, in.Switch.Stages)
	}
	g.blocks = make([]int, in.Switch.Stages)
	return g
}

// stageBlocks returns current block usage on physical stage s.
func (g *greedyState) stageBlocks(s int) int {
	E := g.in.Switch.EntriesPerBlock
	if !g.cons {
		return g.blocks[s]
	}
	total := 0
	for i := range g.rules {
		total += (g.rules[i][s] + E - 1) / E
	}
	return total
}

// fits reports whether adding `add` rules of type t (1-based) on stage s
// keeps the stage within its block budget.
func (g *greedyState) fits(t, s, add int) bool {
	E, B := g.in.Switch.EntriesPerBlock, g.in.Switch.BlocksPerStage
	if g.cons {
		before := (g.rules[t-1][s] + E - 1) / E
		after := (g.rules[t-1][s] + add + E - 1) / E
		return g.stageBlocks(s)-before+after <= B
	}
	return g.blocks[s]+(add+E-1)/E <= B
}

// take commits `add` rules of type t on stage s; give returns them.
func (g *greedyState) take(t, s, add int) { g.shift(t, s, add, 1) }
func (g *greedyState) give(t, s, add int) { g.shift(t, s, add, -1) }

func (g *greedyState) shift(t, s, add, sign int) {
	g.rules[t-1][s] += sign * add
	if !g.cons {
		E := g.in.Switch.EntriesPerBlock
		g.blocks[s] += sign * ((add + E - 1) / E)
	}
}

// chainLoad is a placed chain's Eq. 12 backplane load.
func chainLoad(c *model.Chain, stages []int, S int) float64 {
	return float64(stages[len(stages)-1]/S+1) * c.BandwidthGbps
}

// tryChain attempts to place one chain. Per Algorithm 2, each box goes to
// the "nearest next" physical NF with enough resource capability, with a
// new physical NF installed at the nearest next stage otherwise. Under the
// block-granular memory model those two cases cost the same wherever they
// land (rules of one type on one stage share the block ceiling), so the
// scan is a single ascending first-fit over virtual stages — which also
// minimizes recirculation, the scarcer Eq. 12 resource. On success the
// chain's resources and physical NFs are committed and stages holds its box
// stages; on failure g is unchanged.
func (g *greedyState) tryChain(c *model.Chain, stages []int) bool {
	S, K := g.in.Switch.Stages, g.in.K()
	cursor := 0
	for j, b := range c.NFs {
		placed := -1
		for k := cursor; k < K; k++ {
			if g.fits(b.Type, k%S, b.Rules) {
				placed = k
				break
			}
		}
		if placed == -1 {
			g.giveBoxes(c, stages[:j])
			return false
		}
		g.take(b.Type, placed%S, b.Rules)
		stages[j] = placed
		cursor = placed + 1
	}
	return g.commitLoad(c, stages)
}

// commit places a chain at the given virtual stages if every box fits in
// turn and the load stays within C; like tryChain it leaves g unchanged on
// failure.
func (g *greedyState) commit(c *model.Chain, stages []int) bool {
	S := g.in.Switch.Stages
	for j, b := range c.NFs {
		if !g.fits(b.Type, stages[j]%S, b.Rules) {
			g.giveBoxes(c, stages[:j])
			return false
		}
		g.take(b.Type, stages[j]%S, b.Rules)
	}
	return g.commitLoad(c, stages)
}

// commitLoad finishes a placement whose boxes are taken: if its load fits
// the backplane it is committed with the chain's physical NFs, otherwise
// the boxes are given back.
func (g *greedyState) commitLoad(c *model.Chain, stages []int) bool {
	load := chainLoad(c, stages, g.in.Switch.Stages)
	if g.capUsed+load > g.in.Switch.CapacityGbps {
		g.giveBoxes(c, stages)
		return false
	}
	g.capUsed += load
	g.markX(c, stages)
	return true
}

// markX records the physical NFs a placed chain's boxes sit on.
func (g *greedyState) markX(c *model.Chain, stages []int) {
	S := g.in.Switch.Stages
	for j, k := range stages {
		g.X[c.NFs[j].Type-1][k%S] = true
	}
}

// giveBoxes returns the rules of a chain's first len(stages) boxes.
func (g *greedyState) giveBoxes(c *model.Chain, stages []int) {
	S := g.in.Switch.Stages
	for j, k := range stages {
		g.give(c.NFs[j].Type, k%S, c.NFs[j].Rules)
	}
}

// pin commits an already-placed chain to a retained state: its rules, its
// physical NFs, and its load on the compensated total.
func (g *greedyState) pin(c *model.Chain, stages []int) {
	S := g.in.Switch.Stages
	for j, k := range stages {
		g.take(c.NFs[j].Type, k%S, c.NFs[j].Rules)
	}
	g.markX(c, stages)
	g.account(c, stages, 1)
}

// release is the inverse of pin for a departing chain. The layout never
// shrinks: a physical NF stays installed after its last chain leaves.
func (g *greedyState) release(c *model.Chain, stages []int) {
	g.giveBoxes(c, stages)
	g.account(c, stages, -1)
}

// account moves a committed chain's load onto (sign 1) or off (sign -1)
// the compensated total and re-bases capUsed on it.
func (g *greedyState) account(c *model.Chain, stages []int, sign float64) {
	g.capSum.Add(sign * chainLoad(c, stages, g.in.Switch.Stages))
	g.capUsed = g.capSum.Value()
}

// firstFit is Algorithm 2's placing loop: the candidates, in the given
// order, are sorted stably by the Eq. 13 metric, descending, and each is
// committed first-fit if it fits the remaining resources. admit receives
// every placed candidate's index and box stages (a scratch slice, valid
// only during the call); Resource_recompute is the state carried between
// candidates.
func (g *greedyState) firstFit(cands []*model.Chain, admit func(i int, stages []int)) {
	order := make([]int, len(cands))
	longest := 0
	for i, c := range cands {
		order[i] = i
		longest = max(longest, c.Len())
	}
	sort.SliceStable(order, func(a, b int) bool {
		return Metric(cands[order[a]]) > Metric(cands[order[b]])
	})
	buf := make([]int, longest)
	for _, i := range order {
		stages := buf[:cands[i].Len()]
		if g.tryChain(cands[i], stages) {
			admit(i, stages)
		}
	}
}

// SolveGreedy implements Algorithm 2: chains are ordered by the Eq. 13
// metric and placed first-fit; Resource_recompute is the committed state
// carried between chains.
func SolveGreedy(in *model.Instance, opts GreedyOptions) (*Result, error) {
	start := time.Now()
	if err := in.Validate(); err != nil {
		return nil, err
	}
	g := newGreedyState(in, opts.Consolidate)
	a := model.NewAssignment(in)

	// The chains not pinned are the candidates; cands[i] is in.Chains[at[i]].
	var cands []*model.Chain
	var at []int
	S := in.Switch.Stages
	if opts.Pinned != nil {
		for i := range opts.Pinned.X {
			copy(g.X[i], opts.Pinned.X[i])
		}
	}
	for l, c := range in.Chains {
		if opts.Pinned == nil || !opts.Pinned.Deployed(l) {
			cands, at = append(cands, c), append(at, l)
			continue
		}
		copy(a.Stages[l], opts.Pinned.Stages[l])
		for j, k := range opts.Pinned.Stages[l] {
			g.take(c.NFs[j].Type, k%S, c.NFs[j].Rules)
		}
		g.markX(c, opts.Pinned.Stages[l])
		g.capUsed += float64(opts.Pinned.Passes(l, S)) * c.BandwidthGbps
	}
	g.firstFit(cands, func(i int, stages []int) { copy(a.Stages[at[i]], stages) })
	// Physical layout from the committed state, plus Eq. 4 fill-in for
	// types no chain used (they consume no memory until configured).
	for i := range g.X {
		copy(a.X[i], g.X[i])
		present := false
		for s := range a.X[i] {
			present = present || a.X[i][s]
		}
		if !present {
			a.X[i][0] = true
		}
	}
	if err := model.Verify(in, a, opts.Consolidate); err != nil {
		return nil, err
	}
	m := model.ComputeMetrics(in, a, opts.Consolidate)
	return &Result{
		Assignment: a,
		Metrics:    m,
		Objective:  m.Objective,
		Elapsed:    time.Since(start),
		Status:     "greedy",
	}, nil
}
