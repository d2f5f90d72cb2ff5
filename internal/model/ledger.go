package model

import (
	"fmt"
	"math"
)

// Sum is a compensated (Neumaier) running sum. A long-lived total patched
// by millions of additions and removals of the same terms stays within one
// rounding of the exact total instead of drifting with the step count.
type Sum struct{ s, c float64 }

// Add adds x (negative to remove a term).
func (k *Sum) Add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

// Value returns the compensated total.
func (k *Sum) Value() float64 { return k.s + k.c }

// Ledger is a running account of what the deployed chains of an
// assignment consume: rules per (type, stage) for Eq. 11, per-box blocks
// per stage for Eq. 25, the Eq. 12 backplane load, and the sums Metrics
// reports. Add and Remove patch it one chain at a time, so checking the
// budgets (Check) and reading Metrics after a change to a few chains costs
// time independent of how many chains are deployed. Verify and
// ComputeMetrics stay the from-scratch oracle: a ledger fed every deployed
// chain of an assignment reports what they recount.
type Ledger struct {
	sw   SwitchConfig
	cons bool
	// rules[i][s] sums the rules of type i+1 on physical stage s.
	rules [][]int
	// boxBlocks[s] sums per-box block ceilings on stage s (Eq. 25).
	boxBlocks []int
	// passes[p] counts deployed chains making p pipeline passes.
	passes []int

	load, objective, throughput Sum
	deployed, entries           int
}

// NewLedger returns an empty ledger for a switch with numTypes NF types;
// consolidate selects Eq. 11 (true) or Eq. 25 (false) block accounting.
func NewLedger(sw SwitchConfig, numTypes int, consolidate bool) *Ledger {
	l := &Ledger{sw: sw, cons: consolidate, rules: make([][]int, numTypes), boxBlocks: make([]int, sw.Stages)}
	for i := range l.rules {
		l.rules[i] = make([]int, sw.Stages)
	}
	return l
}

// Add accounts a deployed chain at virtual stages st.
func (l *Ledger) Add(c *Chain, st []int) { l.patch(c, st, 1) }

// Remove reverses an earlier Add of the same chain and stages.
func (l *Ledger) Remove(c *Chain, st []int) { l.patch(c, st, -1) }

func (l *Ledger) patch(c *Chain, st []int, sign int) {
	S, E := l.sw.Stages, l.sw.EntriesPerBlock
	for j, b := range c.NFs {
		s := st[j] % S
		l.rules[b.Type-1][s] += sign * b.Rules
		l.boxBlocks[s] += sign * ((b.Rules + E - 1) / E)
	}
	p := st[len(st)-1]/S + 1
	for len(l.passes) <= p {
		l.passes = append(l.passes, 0)
	}
	l.passes[p] += sign
	f := float64(sign)
	l.load.Add(f * float64(p) * c.BandwidthGbps)
	l.objective.Add(f * c.BandwidthGbps * float64(c.Len()))
	l.throughput.Add(f * c.BandwidthGbps)
	l.deployed += sign
	l.entries += sign * c.RuleSum()
}

// stageBlocks is the memory-block usage of physical stage s.
func (l *Ledger) stageBlocks(s int) int {
	if !l.cons {
		return l.boxBlocks[s]
	}
	E := l.sw.EntriesPerBlock
	blocks := 0
	for i := range l.rules {
		blocks += (l.rules[i][s] + E - 1) / E
	}
	return blocks
}

// Check reports whether the accounted chains fit the switch: every stage
// within B blocks (Eq. 11 or 25) and the backplane load within C (Eq. 12),
// with Verify's tolerances and messages.
func (l *Ledger) Check() error {
	for s := 0; s < l.sw.Stages; s++ {
		if blocks := l.stageBlocks(s); blocks > l.sw.BlocksPerStage {
			return fmt.Errorf("model: stage %d uses %d blocks > B=%d (memory)", s, blocks, l.sw.BlocksPerStage)
		}
	}
	if load := l.load.Value(); load > l.sw.CapacityGbps*(1+1e-9) {
		return fmt.Errorf("model: backplane load %.3f > C=%.3f (Eq. 12)", load, l.sw.CapacityGbps)
	}
	return nil
}

// Metrics reports what ComputeMetrics would over the accounted chains (the
// float sums up to rounding: the ledger's are compensated, the recount's
// are not).
func (l *Ledger) Metrics() Metrics {
	S, E := l.sw.Stages, l.sw.EntriesPerBlock
	m := Metrics{
		Objective:      l.objective.Value(),
		ThroughputGbps: l.throughput.Value(),
		BackplaneGbps:  l.load.Value(),
		Deployed:       l.deployed,
		EntriesUsed:    l.entries,
		BlocksPerStage: make([]int, S),
	}
	for p, n := range l.passes {
		if n > 0 {
			m.MaxPasses = p
		}
	}
	totalBlocks := 0
	for s := range m.BlocksPerStage {
		m.BlocksPerStage[s] = l.stageBlocks(s)
		totalBlocks += m.BlocksPerStage[s]
	}
	if S > 0 {
		m.BlockUtil = float64(totalBlocks) / float64(S)
	}
	if totalBlocks > 0 {
		m.EntryUtil = float64(m.EntriesUsed) / float64(totalBlocks*E)
	}
	return m
}
