package model

import (
	"fmt"
)

// Verify checks an assignment against the full integer-program constraints
// combinatorially — this is Algorithm 1's Verify_vars step, independent of
// the LP encoding so that encoding bugs cannot self-certify.
func Verify(in *Instance, a *Assignment, consolidate bool) error {
	S, K := in.Switch.Stages, in.K()

	// Shape.
	if len(a.X) != in.NumTypes || len(a.Stages) != len(in.Chains) {
		return fmt.Errorf("model: assignment shape mismatch")
	}

	// Eq. (4): every type has a physical instance.
	for i := 0; i < in.NumTypes; i++ {
		found := false
		for s := 0; s < S; s++ {
			if a.X[i][s] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("model: type %d has no physical NF (Eq. 4)", i+1)
		}
	}

	for l, c := range in.Chains {
		if err := CheckChain(c, a.Stages[l], a.X, S, K); err != nil {
			return err
		}
	}

	// Memory (Eq. 11 or 25).
	E := in.Switch.EntriesPerBlock
	for s := 0; s < S; s++ {
		blocks := 0
		if consolidate {
			// Per type: one ceil over the type's total rules on this stage.
			perType := make([]int, in.NumTypes)
			for l, c := range in.Chains {
				if !a.Deployed(l) {
					continue
				}
				for j, b := range c.NFs {
					if a.Stages[l][j]%S == s {
						perType[b.Type-1] += b.Rules
					}
				}
			}
			for _, rules := range perType {
				blocks += (rules + E - 1) / E
			}
		} else {
			for l, c := range in.Chains {
				if !a.Deployed(l) {
					continue
				}
				for j, b := range c.NFs {
					if a.Stages[l][j]%S == s {
						blocks += (b.Rules + E - 1) / E
					}
				}
			}
		}
		if blocks > in.Switch.BlocksPerStage {
			return fmt.Errorf("model: stage %d uses %d blocks > B=%d (memory)", s, blocks, in.Switch.BlocksPerStage)
		}
	}

	// Capacity (Eq. 12).
	load := 0.0
	for l, c := range in.Chains {
		load += float64(a.Passes(l, S)) * c.BandwidthGbps
	}
	if load > in.Switch.CapacityGbps*(1+1e-9) {
		return fmt.Errorf("model: backplane load %.3f > C=%.3f (Eq. 12)", load, in.Switch.CapacityGbps)
	}
	return nil
}

// CheckChain applies Verify's per-chain structural checks to one chain's
// box stages st against the physical layout X: all boxes share fate
// (Eq. 7), deployed boxes sit on strictly increasing virtual stages below
// K (Eq. 8), and each lands on a stage holding a physical NF of its type
// (Eq. 9).
func CheckChain(c *Chain, st []int, X [][]bool, S, K int) error {
	if len(st) != c.Len() {
		return fmt.Errorf("model: chain %d stage list length %d != %d", c.ID, len(st), c.Len())
	}
	deployed := st[0] >= 0
	prev := -1
	for j, k := range st {
		if (k >= 0) != deployed {
			return fmt.Errorf("model: chain %d partial deployment (Eq. 7)", c.ID)
		}
		if !deployed {
			continue
		}
		if k >= K {
			return fmt.Errorf("model: chain %d box %d at stage %d ≥ K=%d", c.ID, j, k, K)
		}
		if k <= prev {
			return fmt.Errorf("model: chain %d order violated at box %d (Eq. 8)", c.ID, j)
		}
		prev = k
		if !X[c.NFs[j].Type-1][k%S] {
			return fmt.Errorf("model: chain %d box %d (type %d) on stage %d without physical NF (Eq. 9)",
				c.ID, j, c.NFs[j].Type, k%S)
		}
	}
	return nil
}

// Metrics summarizes an assignment's quality and resource usage — the
// quantities plotted in Figs. 6, 7, 10 and 11.
type Metrics struct {
	// Objective is Eq. (1): Σ deployed T_l·J_l.
	Objective float64
	// ThroughputGbps is Σ deployed T_l (the figures' "throughput" axis).
	ThroughputGbps float64
	// BackplaneGbps is Σ (R_l+1)·T_l, the Eq. (12) load.
	BackplaneGbps float64
	// Deployed counts placed chains.
	Deployed int
	// BlocksPerStage is memory-block usage per physical stage.
	BlocksPerStage []int
	// BlockUtil is mean blocks used per stage (Fig. 6a axis, 0..B).
	BlockUtil float64
	// EntriesUsed is total installed rule entries.
	EntriesUsed int
	// EntryUtil is entries used over entries reserved in allocated blocks
	// (Fig. 6b axis, 0..1): consolidation raises it by removing internal
	// fragmentation.
	EntryUtil float64
	// MaxPasses is the largest R_l+1 over deployed chains.
	MaxPasses int
}

// ComputeMetrics evaluates an assignment. consolidate must match the
// formulation the assignment was produced under, since it changes how many
// blocks the same placement occupies.
func ComputeMetrics(in *Instance, a *Assignment, consolidate bool) Metrics {
	S := in.Switch.Stages
	E := in.Switch.EntriesPerBlock
	m := Metrics{BlocksPerStage: make([]int, S)}

	for l, c := range in.Chains {
		if !a.Deployed(l) {
			continue
		}
		m.Deployed++
		m.Objective += c.BandwidthGbps * float64(c.Len())
		m.ThroughputGbps += c.BandwidthGbps
		passes := a.Passes(l, S)
		m.BackplaneGbps += float64(passes) * c.BandwidthGbps
		if passes > m.MaxPasses {
			m.MaxPasses = passes
		}
		m.EntriesUsed += c.RuleSum()
	}

	for s := 0; s < S; s++ {
		if consolidate {
			perType := make([]int, in.NumTypes)
			for l, c := range in.Chains {
				if !a.Deployed(l) {
					continue
				}
				for j, b := range c.NFs {
					if a.Stages[l][j]%S == s {
						perType[b.Type-1] += b.Rules
					}
				}
			}
			for _, rules := range perType {
				m.BlocksPerStage[s] += (rules + E - 1) / E
			}
		} else {
			for l, c := range in.Chains {
				if !a.Deployed(l) {
					continue
				}
				for j, b := range c.NFs {
					if a.Stages[l][j]%S == s {
						m.BlocksPerStage[s] += (b.Rules + E - 1) / E
					}
				}
			}
		}
	}
	totalBlocks := 0
	for _, b := range m.BlocksPerStage {
		totalBlocks += b
	}
	if S > 0 {
		m.BlockUtil = float64(totalBlocks) / float64(S)
	}
	if totalBlocks > 0 {
		m.EntryUtil = float64(m.EntriesUsed) / float64(totalBlocks*E)
	}
	return m
}
