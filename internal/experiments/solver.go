package experiments

import (
	"fmt"
	"time"

	"sfp/internal/model"
	"sfp/internal/placement"
)

// Fig8 reproduces the solver-runtime comparison: SFP-IP runtime grows
// super-polynomially in the candidate count while SFP-Appro stays
// polynomial (§VI-C, "Comparison between Placement Algorithms").
func Fig8(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig. 8: placement runtime (s) vs number of SFCs — SFP-IP vs SFP-Appro",
		Columns: []string{"L", "algo_ip", "seconds", "capped"},
	}
	cap := time.Duration(scale.Fig8IPTimeCapSec * float64(time.Second))
	for _, L := range scale.Fig8IPLs {
		var secs []float64
		capped := 0.0
		for s := 0; s < scale.Seeds; s++ {
			in := genInstance(int64(800+10*L+s), L, scale.MeanChainLen, scale.Recirc)
			res, err := placement.SolveIP(in, placement.IPOptions{
				Build:     model.BuildOptions{Consolidate: true},
				TimeLimit: cap,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 IP L=%d: %w", L, err)
			}
			secs = append(secs, res.Elapsed.Seconds())
			if res.Status != "optimal" {
				capped = 1
			}
		}
		t.Rows = append(t.Rows, []float64{float64(L), 1, mean(secs), capped})
	}
	for _, L := range scale.Fig8ApproxLs {
		var secs []float64
		for s := 0; s < scale.Seeds; s++ {
			in := genInstance(int64(800+10*L+s), L, scale.MeanChainLen, scale.Recirc)
			res, err := placement.SolveApprox(in, placement.ApproxOptions{
				Build: model.BuildOptions{Consolidate: true}, Seed: int64(s),
				Workers: scale.SolverWorkers,
			})
			if err != nil {
				return nil, fmt.Errorf("experiments: fig8 approx L=%d: %w", L, err)
			}
			secs = append(secs, res.Elapsed.Seconds())
		}
		t.Rows = append(t.Rows, []float64{float64(L), 0, mean(secs), 0})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("IP runs capped at %.0fs (capped=1 marks limit hits — the blow-up the paper plots)", scale.Fig8IPTimeCapSec),
		"our branch-and-bound is not Gurobi: the IP curve explodes at smaller L, same shape")
	return t, nil
}

// Fig9 reproduces the early-termination study: a cold IP solve returns
// nothing under the tightest limits, then jumps close to optimal and creeps
// upward, while SFP-Appro reaches its (near-optimal) answer in one run.
func Fig9(scale Scale) (*Table, error) {
	in := genInstance(900, scale.Fig9L, scale.MeanChainLen, scale.Recirc)
	t := &Table{
		Title:   "Fig. 9: SFP-IP objective and resource use vs solver runtime limit",
		Columns: []string{"limit_s", "throughput_gbps", "objective", "block_util", "frac_of_best"},
	}
	best := 0.0
	type point struct{ thr, obj, blk float64 }
	var pts []point
	for _, lim := range scale.Fig9LimitsSec {
		res, err := placement.SolveIP(in, placement.IPOptions{
			Build:       model.BuildOptions{Consolidate: true},
			TimeLimit:   time.Duration(lim * float64(time.Second)),
			NoWarmStart: true, // the paper's cold solver returns 0 at 5s
		})
		if err != nil {
			return nil, err
		}
		p := point{res.Metrics.ThroughputGbps, res.Objective, res.Metrics.BlockUtil}
		pts = append(pts, p)
		if p.obj > best {
			best = p.obj
		}
	}
	for i, lim := range scale.Fig9LimitsSec {
		frac := 0.0
		if best > 0 {
			frac = pts[i].obj / best
		}
		t.Rows = append(t.Rows, []float64{lim, pts[i].thr, pts[i].obj, pts[i].blk, frac})
	}
	// Reference: the one-shot approximation on the same instance.
	ap, err := placement.SolveApprox(in, placement.ApproxOptions{
		Build: model.BuildOptions{Consolidate: true}, Seed: 9,
		Workers: scale.SolverWorkers,
	})
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("L=%d; cold solver (no warm start) per the paper's Gurobi setup", scale.Fig9L),
		fmt.Sprintf("SFP-Appro reference on same instance: %.1f Gbps objective %.1f in %.2fs",
			ap.Metrics.ThroughputGbps, ap.Objective, ap.Elapsed.Seconds()),
		"paper shape: 0 at the tightest limit, near-optimal shortly after, slow creep to optimal")
	return t, nil
}

// Fig10 reproduces the algorithm comparison: IP ≥ Appro ≥ Greedy, with the
// IP saturating the switch capacity as candidates grow.
func Fig10(scale Scale) (*Table, error) {
	t := &Table{
		Title:   "Fig. 10: offloaded throughput (Gbps) by algorithm vs number of SFCs",
		Columns: []string{"L", "sfp_ip", "sfp_appro", "greedy"},
	}
	cap := time.Duration(scale.Fig10IPTimeCapSec * float64(time.Second))
	for _, L := range scale.Fig10Ls {
		var ip, ap, gr []float64
		for s := 0; s < scale.Seeds; s++ {
			in := genInstanceSw(int64(1000+10*L+s), L, scale.MeanChainLen, scale.Recirc, scale.Fig10Switch)
			apRes, err := placement.SolveApprox(in, placement.ApproxOptions{
				Build: model.BuildOptions{Consolidate: true}, Seed: int64(s),
				Workers: scale.SolverWorkers,
			})
			if err != nil {
				return nil, err
			}
			grRes, err := placement.SolveGreedy(in, placement.GreedyOptions{Consolidate: true})
			if err != nil {
				return nil, err
			}
			// The IP is seeded with the best heuristic incumbent, as MIP
			// practice dictates: its time-capped answer dominates both.
			ipRes, err := placement.SolveIP(in, placement.IPOptions{
				Build: model.BuildOptions{Consolidate: true}, TimeLimit: cap,
				WarmFrom: apRes.Assignment,
			})
			if err != nil {
				return nil, err
			}
			ip = append(ip, ipRes.Metrics.ThroughputGbps)
			ap = append(ap, apRes.Metrics.ThroughputGbps)
			gr = append(gr, grRes.Metrics.ThroughputGbps)
		}
		t.Rows = append(t.Rows, []float64{float64(L), mean(ip), mean(ap), mean(gr)})
	}
	t.Notes = append(t.Notes,
		fmt.Sprintf("IP warm-started and capped at %.0fs per solve; averaged over %d seeds", scale.Fig10IPTimeCapSec, scale.Seeds),
		fmt.Sprintf("switch scaled to B=%d C=%.0fGbps so contention matches the paper's L=40..60 regime", scale.Fig10Switch.BlocksPerStage, scale.Fig10Switch.CapacityGbps),
		"paper shape: IP >= Appro >= Greedy; IP approaches the capacity bound with enough candidates")
	return t, nil
}
