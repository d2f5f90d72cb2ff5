// Package model encodes SFP's joint physical/logical NF placement problem
// (§V-A of the paper) as an integer program over the internal/lp and
// internal/ilp solvers, and provides the independent combinatorial verifier
// and resource metrics the rounding algorithm and the experiments rely on.
//
// Symbols follow Table I of the paper: I NF types, chains l ∈ [0, L) with
// J_l boxes of type f_jl and F_jl rules each, bandwidth T_l, a switch of S
// stages with B blocks of E entries per stage and backplane capacity C, and
// a virtual pipeline of K = S·(R+1) stages unrolled over R recirculations.
package model

import (
	"fmt"
)

// SwitchConfig fixes the switch resources the placement must respect.
type SwitchConfig struct {
	// Stages is S, the physical stage count.
	Stages int
	// BlocksPerStage is B.
	BlocksPerStage int
	// EntriesPerBlock is E/b — how many rule entries one block holds.
	EntriesPerBlock int
	// CapacityGbps is C, the backplane bandwidth shared by inbound and
	// recirculated traffic.
	CapacityGbps float64
}

// DefaultSwitchConfig returns the evaluation configuration of §VI-C:
// 8 stages × 20 blocks × 1000 entries, 400 Gbps backplane.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{Stages: 8, BlocksPerStage: 20, EntriesPerBlock: 1000, CapacityGbps: 400}
}

// ChainNF is one box of an SFC: its type f_jl and rule count F_jl.
type ChainNF struct {
	Type  int // 1-based NF type index
	Rules int // configured entries
}

// Chain is one SFC candidate.
type Chain struct {
	// ID is the tenant/chain identifier (unique within an instance).
	ID int
	// NFs is the ordered box list.
	NFs []ChainNF
	// BandwidthGbps is T_l.
	BandwidthGbps float64
}

// Len returns J_l.
func (c *Chain) Len() int { return len(c.NFs) }

// RuleSum returns Σ_j F_jl, the chain's total rule demand.
func (c *Chain) RuleSum() int {
	n := 0
	for _, b := range c.NFs {
		n += b.Rules
	}
	return n
}

// Instance is one placement problem.
type Instance struct {
	Switch SwitchConfig
	// NumTypes is I.
	NumTypes int
	// Chains are the SFC candidates.
	Chains []*Chain
	// Recirc is R, the allowed recirculation count; the virtual pipeline
	// has K = S·(R+1) stages.
	Recirc int
}

// K returns the virtual pipeline length S·(R+1).
func (in *Instance) K() int { return in.Switch.Stages * (in.Recirc + 1) }

// Validate sanity-checks the instance.
func (in *Instance) Validate() error {
	if in.Switch.Stages <= 0 || in.Switch.BlocksPerStage <= 0 || in.Switch.EntriesPerBlock <= 0 {
		return fmt.Errorf("model: non-positive switch resources: %+v", in.Switch)
	}
	if in.NumTypes <= 0 {
		return fmt.Errorf("model: NumTypes = %d", in.NumTypes)
	}
	if in.Recirc < 0 {
		return fmt.Errorf("model: negative recirculation %d", in.Recirc)
	}
	seen := map[int]bool{}
	for _, c := range in.Chains {
		if seen[c.ID] {
			return fmt.Errorf("model: duplicate chain ID %d", c.ID)
		}
		seen[c.ID] = true
		if err := c.Validate(in.NumTypes); err != nil {
			return err
		}
	}
	return nil
}

// Validate is the per-chain part of Instance.Validate: a non-empty box
// list, positive bandwidth, and every box of a type in [1, numTypes] with
// positive rules.
func (c *Chain) Validate(numTypes int) error {
	if len(c.NFs) == 0 {
		return fmt.Errorf("model: chain %d empty", c.ID)
	}
	if c.BandwidthGbps <= 0 {
		return fmt.Errorf("model: chain %d bandwidth %v", c.ID, c.BandwidthGbps)
	}
	for j, b := range c.NFs {
		if b.Type < 1 || b.Type > numTypes {
			return fmt.Errorf("model: chain %d box %d type %d outside [1,%d]", c.ID, j, b.Type, numTypes)
		}
		if b.Rules <= 0 {
			return fmt.Errorf("model: chain %d box %d has %d rules", c.ID, j, b.Rules)
		}
	}
	return nil
}

// Assignment is a concrete placement: which physical NFs exist and where
// each chain's boxes land on the virtual pipeline.
type Assignment struct {
	// X[i-1][s] reports a physical NF of type i on physical stage s.
	X [][]bool
	// Stages[l][j] is the 0-based virtual stage of chain l's box j, or -1
	// when the chain is not deployed (all boxes of a chain share fate).
	Stages [][]int
}

// NewAssignment returns an all-empty assignment shaped for the instance.
func NewAssignment(in *Instance) *Assignment {
	a := &Assignment{
		X:      make([][]bool, in.NumTypes),
		Stages: make([][]int, len(in.Chains)),
	}
	for i := range a.X {
		a.X[i] = make([]bool, in.Switch.Stages)
	}
	for l, c := range in.Chains {
		a.Stages[l] = make([]int, c.Len())
		for j := range a.Stages[l] {
			a.Stages[l][j] = -1
		}
	}
	return a
}

// Deployed reports whether chain l is placed.
func (a *Assignment) Deployed(l int) bool {
	return len(a.Stages[l]) > 0 && a.Stages[l][0] >= 0
}

// Passes returns R_l+1 for chain l under stage count S (0 if undeployed).
func (a *Assignment) Passes(l, S int) int {
	if !a.Deployed(l) {
		return 0
	}
	last := a.Stages[l][len(a.Stages[l])-1]
	return last/S + 1
}

// Clone deep-copies the assignment (runtime update keeps survivors pinned
// while re-solving for arrivals).
func (a *Assignment) Clone() *Assignment {
	b := &Assignment{
		X:      make([][]bool, len(a.X)),
		Stages: make([][]int, len(a.Stages)),
	}
	for i := range a.X {
		b.X[i] = append([]bool(nil), a.X[i]...)
	}
	for l := range a.Stages {
		b.Stages[l] = append([]int(nil), a.Stages[l]...)
	}
	return b
}
