package placement

import (
	"math/rand"
	"testing"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

// Solver benchmarks at the Fig-8 experiment scale (§VI-C), for the
// control-plane fast path: go test -bench 'Solve' ./internal/placement.

func fig8Instance(seed int64, L int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Switch:   model.DefaultSwitchConfig(),
		NumTypes: 10,
		Recirc:   2,
		Chains:   traffic.GenChains(rng, L, traffic.ChainParams{MeanLen: 5}),
	}
}

// BenchmarkSolveIP measures branch and bound on a Fig-8-scale instance with
// a fixed node budget, so the metric is per-node solver cost rather than
// search-order luck.
func BenchmarkSolveIP(b *testing.B) {
	in := fig8Instance(860, 6)
	for i := 0; i < b.N; i++ {
		res, err := SolveIP(in, IPOptions{
			Build:    model.BuildOptions{Consolidate: true},
			MaxNodes: 60,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Assignment == nil {
			b.Fatal("no assignment")
		}
	}
}

// replanFleet builds an Updater with n live tenants pinned across an
// 8-stage switch sized so memory and backplane never bind — the replan cost
// being measured is solver/encode work, not admission pressure. Chains use
// rotating types and staggered stage windows so pinned load spreads over
// every (type, stage) cell.
func replanFleet(n int) *Updater {
	sw := model.SwitchConfig{Stages: 8, BlocksPerStage: 4096, EntriesPerBlock: 1000, CapacityGbps: 1e6}
	u := &Updater{
		sw:       sw,
		numTypes: 4,
		recirc:   0,
		build:    model.BuildOptions{Consolidate: true},
		chains:   make(map[int]*model.Chain, n),
		live:     make(map[int][]int, n),
		waiting:  make(map[int]bool),
		layout:   make([][]bool, 4),
	}
	for i := range u.layout {
		u.layout[i] = make([]bool, sw.Stages)
		for s := range u.layout[i] {
			u.layout[i][s] = true
		}
	}
	for id := 1; id <= n; id++ {
		c := fleetChain(id)
		base := id % 6
		u.chains[id] = c
		u.live[id] = []int{base, base + 1, base + 2}
		u.ids = append(u.ids, id)
	}
	return u
}

func fleetChain(id int) *model.Chain {
	return &model.Chain{ID: id, BandwidthGbps: 0.01, NFs: []model.ChainNF{
		{Type: 1 + id%4, Rules: 40},
		{Type: 1 + (id+1)%4, Rules: 40},
		{Type: 1 + (id+2)%4, Rules: 40},
	}}
}

// benchReplan measures one arrive → replan → depart cycle at n live
// tenants. The delta path retains the residual program across iterations
// (the warmup replan builds it); the full path re-encodes every tenant per
// replan — the cost the fast path exists to eliminate.
func benchReplan(b *testing.B, n int, full bool) {
	u := replanFleet(n)
	if _, err := u.Replan(ReplanOptions{FullRebuild: full}); err != nil {
		b.Fatal(err)
	}
	nextID := n + 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := nextID
		nextID++
		if err := u.Arrive(fleetChain(id)); err != nil {
			b.Fatal(err)
		}
		if _, err := u.Replan(ReplanOptions{FullRebuild: full}); err != nil {
			b.Fatal(err)
		}
		if u.LastReplan().Admitted != 1 {
			b.Fatalf("arrival %d not admitted: %+v", id, u.LastReplan())
		}
		if err := u.Depart(id); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplanDelta* time incremental replans, whose cost should scale
// with the waiting set, not the live-tenant count.
func BenchmarkReplanDelta1k(b *testing.B)  { benchReplan(b, 1000, false) }
func BenchmarkReplanDelta4k(b *testing.B)  { benchReplan(b, 4000, false) }
func BenchmarkReplanDelta10k(b *testing.B) { benchReplan(b, 10000, false) }

// BenchmarkReplanFull* run the same cycles through the full-rebuild
// reference path, to compare with the delta path. No 10k variant: the full
// path at that scale is exactly the cost the delta path avoids.
func BenchmarkReplanFull1k(b *testing.B) { benchReplan(b, 1000, true) }
func BenchmarkReplanFull4k(b *testing.B) { benchReplan(b, 4000, true) }

// BenchmarkSolveApprox measures Algorithm 1 (LP relaxation + randomized
// rounding, full recirculation sweep) at the Fig-8 approximation scale.
func BenchmarkSolveApprox(b *testing.B) {
	in := fig8Instance(1100, 30)
	for i := 0; i < b.N; i++ {
		res, err := SolveApprox(in, ApproxOptions{
			Build: model.BuildOptions{Consolidate: true},
			Seed:  7,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Assignment == nil {
			b.Fatal("no assignment")
		}
	}
}
