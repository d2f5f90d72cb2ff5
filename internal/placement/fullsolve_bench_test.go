package placement

import (
	"runtime"
	"testing"
	"time"

	"sfp/internal/model"
)

// Full-solve scale benchmarks. They compare the Lagrangian decomposition
// (SolveDecomposed) against the exact IP at initial-provisioning scale on
// instances where both the per-stage memory and the backplane bind
// (contendedInstance: blocks ≈ L/4, capacity 6·L admits roughly two thirds
// of the sampled bandwidth).
//
// The build is non-consolidated (Eq. 25): there the decomposition prices
// whole blocks exactly, so its certified gap converges tight —
// TestDecomposedGapQuality holds the 1k instance to 3%. Every decomposed run
// re-verifies its repaired placement against the full constraint set, so a
// passing benchmark is also a feasibility proof at that scale. The exact
// side runs to a wall-clock limit, so its numbers depend on the host.

const fullSolveSeed = 424

func benchFullSolveDecomp(b *testing.B, L int) {
	in := contendedInstance(fullSolveSeed, L, 0)
	var last *Result
	for i := 0; i < b.N; i++ {
		res, err := SolveDecomposed(in, DecomposeOptions{
			Build:   model.BuildOptions{Consolidate: false},
			Workers: runtime.NumCPU(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := model.Verify(in, res.Assignment, false); err != nil {
			b.Fatalf("decomposed placement infeasible at L=%d: %v", L, err)
		}
		last = res
	}
	b.ReportMetric(100*last.Gap, "gap_pct")
	b.ReportMetric(last.Objective, "obj")
	b.ReportMetric(float64(last.DualIters), "iters")
}

func BenchmarkFullSolveDecomp250(b *testing.B) { benchFullSolveDecomp(b, 250) }
func BenchmarkFullSolveDecomp1k(b *testing.B)  { benchFullSolveDecomp(b, 1000) }
func BenchmarkFullSolveDecomp4k(b *testing.B)  { benchFullSolveDecomp(b, 4000) }

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
			Workers:   runtime.NumCPU(),
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
