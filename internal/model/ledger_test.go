package model

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
)

// randomPlacement deploys a random subset of the instance's chains at
// random strictly increasing virtual stages and switches on the physical
// NFs they land on, so every result passes Verify's structural checks and
// only the memory and backplane budgets decide feasibility.
func randomPlacement(rng *rand.Rand, in *Instance) *Assignment {
	a := NewAssignment(in)
	S, K := in.Switch.Stages, in.K()
	for l, c := range in.Chains {
		if c.Len() > K || rng.Intn(3) == 0 {
			continue
		}
		k := -1
		for j := range c.NFs {
			k += 1 + rng.Intn(K-k-(c.Len()-j))
			a.Stages[l][j] = k
			a.X[c.NFs[j].Type-1][k%S] = true
		}
	}
	for i := range a.X {
		a.X[i][0] = true
	}
	return a
}

// ledgerOf accounts every deployed chain of an assignment.
func ledgerOf(in *Instance, a *Assignment, cons bool) *Ledger {
	led := NewLedger(in.Switch, in.NumTypes, cons)
	for l, c := range in.Chains {
		if a.Deployed(l) {
			led.Add(c, a.Stages[l])
		}
	}
	return led
}

// sameMetrics compares a ledger's metrics with a recount: counts exactly,
// float sums up to rounding.
func sameMetrics(got, want Metrics) bool {
	near := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*(1+math.Abs(y)) }
	if got.Deployed != want.Deployed || got.EntriesUsed != want.EntriesUsed ||
		got.MaxPasses != want.MaxPasses || len(got.BlocksPerStage) != len(want.BlocksPerStage) {
		return false
	}
	for s := range got.BlocksPerStage {
		if got.BlocksPerStage[s] != want.BlocksPerStage[s] {
			return false
		}
	}
	return near(got.Objective, want.Objective) && near(got.ThroughputGbps, want.ThroughputGbps) &&
		near(got.BackplaneGbps, want.BackplaneGbps) && near(got.BlockUtil, want.BlockUtil) &&
		near(got.EntryUtil, want.EntryUtil)
}

// TestLedgerMatchesRecount: on random placements, many of them over budget,
// a ledger patched chain by chain reports ComputeMetrics' numbers, and its
// Check fails exactly when Verify does — under both memory models, after
// churning chains out and back in.
func TestLedgerMatchesRecount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rejected := 0
	for trial := 0; trial < 400; trial++ {
		in := randomInstance(rng, 4, 2+rng.Intn(10))
		a := randomPlacement(rng, in)
		for _, cons := range []bool{true, false} {
			led := ledgerOf(in, a, cons)
			// Churn: take every other deployed chain out and put it back.
			for l, c := range in.Chains {
				if a.Deployed(l) && l%2 == 0 {
					led.Remove(c, a.Stages[l])
				}
			}
			for l, c := range in.Chains {
				if a.Deployed(l) && l%2 == 0 {
					led.Add(c, a.Stages[l])
				}
			}
			if got, want := led.Metrics(), ComputeMetrics(in, a, cons); !sameMetrics(got, want) {
				t.Fatalf("trial %d cons=%v: ledger metrics %+v, recount %+v", trial, cons, got, want)
			}
			verr, lerr := Verify(in, a, cons), led.Check()
			if (verr == nil) != (lerr == nil) {
				t.Fatalf("trial %d cons=%v: Verify says %v, ledger says %v", trial, cons, verr, lerr)
			}
			if verr != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no placement exceeded a budget; the check was never exercised")
	}
}

// TestLedgerNoDrift: a million random additions and removals of
// non-representable loads leave the compensated backplane total within a
// few ulps of the exact sum of the survivors.
func TestLedgerNoDrift(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sw := SwitchConfig{Stages: 4, BlocksPerStage: 1 << 20, EntriesPerBlock: 100, CapacityGbps: 1e9}
	led := NewLedger(sw, 1, true)
	type placed struct {
		c  *Chain
		st []int
	}
	var live []placed
	for step := 0; step < 1_000_000; step++ {
		if len(live) < 500 || rng.Intn(2) == 0 {
			c := &Chain{ID: step, NFs: []ChainNF{{Type: 1, Rules: 1}}, BandwidthGbps: 0.001 * float64(1+rng.Intn(5000))}
			p := placed{c, []int{rng.Intn(8)}}
			led.Add(p.c, p.st)
			live = append(live, p)
			continue
		}
		i := rng.Intn(len(live))
		led.Remove(live[i].c, live[i].st)
		live[i] = live[len(live)-1]
		live = live[:len(live)-1]
	}
	exact := new(big.Float).SetPrec(200)
	for _, p := range live {
		passes := float64(p.st[0]/sw.Stages + 1)
		exact.Add(exact, new(big.Float).SetFloat64(passes*p.c.BandwidthGbps))
	}
	want, _ := exact.Float64()
	if got := led.Metrics().BackplaneGbps; math.Abs(got-want) > 4*ulp(want) {
		t.Fatalf("compensated load %v drifted from exact %v by %g", got, want, got-want)
	}
}

func ulp(x float64) float64 { return math.Nextafter(x, math.Inf(1)) - x }
