package placement

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

// Full-solve scale benchmarks. They compare the Lagrangian decomposition
// (SolveDecomposed) against the exact IP at initial-provisioning scale on
// instances where both the per-stage memory and the backplane bind
// (contendedInstance: blocks ≈ L/4, capacity 6·L admits roughly two thirds
// of the sampled bandwidth).
//
// The contended builds are non-consolidated (Eq. 25): there the
// decomposition prices whole blocks exactly, so its certified gap converges
// tight — TestDecomposedGapQuality holds the 1k instance to 3%.
// BenchmarkFullSolveDecompBulk10k is the consolidated (Eq. 11) solve of
// sfpbench's bulk workload. Every decomposed run verifies the placement it
// returns against the full constraint set, so a passing benchmark is also a
// feasibility proof at that scale. The exact side runs to a wall-clock
// limit, so its numbers depend on the host.

const fullSolveSeed = 424

// bulkInstance is the full solve of sfpbench's bulk workload built from
// traffic.GenChains: short chains of 1–3-rule boxes at megabit rates on an
// 8-stage, one-pass switch of 16-entry blocks, with memory (L/40 blocks per
// stage) and the backplane (about four fifths of the demand) both binding.
func bulkInstance(seed int64, L int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Switch: model.SwitchConfig{
			Stages:          8,
			BlocksPerStage:  max(L/40, 8),
			EntriesPerBlock: 16,
			CapacityGbps:    0.002*float64(L) + 0.0005,
		},
		NumTypes: 10,
		Chains: traffic.GenChains(rng, L, traffic.ChainParams{
			MeanLen: 2, RuleMin: 1, RuleMax: 3, ParetoXm: 0.0014, BandwidthCap: 0.004,
		}),
	}
}

func benchFullSolveDecomp(b *testing.B, in *model.Instance, cons bool) {
	b.ReportAllocs()
	b.ResetTimer()
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := SolveDecomposed(in, DecomposeOptions{
			Build:   model.BuildOptions{Consolidate: cons},
			Workers: runtime.NumCPU(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := model.Verify(in, res.Assignment, cons); err != nil {
			b.Fatalf("decomposed placement infeasible at L=%d: %v", len(in.Chains), err)
		}
		last = res
	}
	b.ReportMetric(100*last.Gap, "gap_pct")
	b.ReportMetric(last.Objective, "obj")
	b.ReportMetric(float64(last.DualIters), "iters")
}

func benchFullSolveContended(b *testing.B, L int) {
	benchFullSolveDecomp(b, contendedInstance(fullSolveSeed, L, 0), false)
}

func BenchmarkFullSolveDecomp250(b *testing.B) { benchFullSolveContended(b, 250) }
func BenchmarkFullSolveDecomp1k(b *testing.B)  { benchFullSolveContended(b, 1000) }
func BenchmarkFullSolveDecomp4k(b *testing.B)  { benchFullSolveContended(b, 4000) }

// BenchmarkFullSolveDecompBulk10k is sfpbench bulk-10k's full solve without
// the controller around it: consolidated accounting, as core builds it.
func BenchmarkFullSolveDecompBulk10k(b *testing.B) {
	benchFullSolveDecomp(b, bulkInstance(fullSolveSeed, 10000), true)
}

// benchFullSolveExact runs the exact IP on the same instance under a time
// limit. A decomposed pre-solve supplies BoundCap, so branch and bound can
// terminate "optimal" as soon as its incumbent reaches the externally
// certified bound instead of grinding its own loose tree bound down.
func benchFullSolveExact(b *testing.B, L int, limit time.Duration) {
	in := contendedInstance(fullSolveSeed, L, 0)
	pre, err := SolveDecomposed(in, DecomposeOptions{
		Build:   model.BuildOptions{Consolidate: false},
		Workers: runtime.NumCPU(),
	})
	if err != nil {
		b.Fatal(err)
	}
	var last *Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := SolveIP(in, IPOptions{
			Build:     model.BuildOptions{Consolidate: false},
			TimeLimit: limit,
			RelGap:    0.005,
			BoundCap:  pre.Bound,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Assignment == nil {
			b.Fatalf("exact IP returned no placement at L=%d", L)
		}
		last = res
	}
	b.ReportMetric(last.Objective, "obj")
	optimal := 0.0
	if last.Status == "optimal" {
		optimal = 1
	}
	b.ReportMetric(optimal, "optimal")
}

// BenchmarkFullSolveExact1k is the quality reference: at this size the
// warm-started IP still finds strong solutions within the limit.
func BenchmarkFullSolveExact1k(b *testing.B) { benchFullSolveExact(b, 1000, 20*time.Second) }

// BenchmarkFullSolveExact4k is the speed reference: the IP runs to its
// limit at this size, so the measured time understates the true
// exact-solve cost.
func BenchmarkFullSolveExact4k(b *testing.B) { benchFullSolveExact(b, 4000, 30*time.Second) }
