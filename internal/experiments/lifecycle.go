package experiments

// Online lifecycle churn, an extension experiment beyond the paper's
// evaluation (the 100k-tenant run is BenchmarkLifecycleChurn100k in
// internal/lifecycle). A seeded churn engine holds a
// live-tenant population against a single switch and sweeps the offered
// load: below load 1 the switch admits essentially everything the latency
// SLOs allow; past the knee the backplane saturates and the acceptance
// ratio falls as ~capacity/offered — the Erlang-loss shape. Utilization
// climbs to the capacity bound and stays there.

import (
	"fmt"

	"sfp/internal/lifecycle"
)

// Lifecycle sweeps the offered-load multiplier and reports, per load:
// acceptance ratio, steady-state population, switch utilization, and the
// p99 wall-clock latency of the arrival batches. The switch backplane is
// sized with 10% headroom over the load-1 population so the knee of the
// curve sits just past load 1.
func Lifecycle(sc Scale) (*Table, error) {
	target := sc.LifecycleTarget
	if target <= 0 {
		target = 1500
	}
	loads := sc.LifecycleLoads
	if len(loads) == 0 {
		loads = []float64{0.6, 0.8, 1.0, 1.2, 1.5}
	}

	base := lifecycle.Smoke()
	base.TargetLive = target
	base.FillBatch = target / 4
	base.Workers = sc.SolverWorkers
	// Long enough past the fill for an overdriven population to actually
	// reach the capacity ceiling before measurement ends.
	base.WarmTicks = 15
	base.MeasureTicks = 30
	base = base.WithDefaults()
	// Bandwidth with 10% headroom over the load-1 population: the mean
	// per-tenant demand is mean-users × per-user rate.
	meanUsers := float64(base.UsersMin+base.UsersMax) / 2
	base.Pipeline.CapacityGbps = 1.10 * float64(target) * meanUsers * base.UserRateGbps

	tbl := &Table{
		Title:   fmt.Sprintf("Lifecycle churn: acceptance and utilization vs offered load (target %d live)", target),
		Columns: []string{"load", "offered", "accepted", "slo_rej", "cap_rej", "accept_ratio", "mean_live", "bw_util", "arrive_p99_ms"},
		Notes: []string{
			"Poisson arrivals, exponential TTLs, Erlang loss model (rejected arrivals depart immediately)",
			fmt.Sprintf("backplane sized to 1.1x the load-1 demand (%.1f Gbps); memory over-provisioned", base.Pipeline.CapacityGbps),
			fmt.Sprintf("seed %d; fixed seed reproduces the identical admission trace at any worker count", base.Seed),
		},
	}
	for _, load := range loads {
		cfg := base
		cfg.Load = load
		rep, err := lifecycle.Run(cfg)
		if err != nil {
			return nil, fmt.Errorf("lifecycle load %.2f: %w", load, err)
		}
		tbl.Rows = append(tbl.Rows, []float64{
			load,
			float64(rep.Offered),
			float64(rep.Accepted),
			float64(rep.SLORejected),
			float64(rep.CapRejected),
			rep.AcceptanceRatio,
			rep.MeanLive,
			rep.BandwidthUtil,
			float64(rep.ArriveP99.Milliseconds()),
		})
	}
	return tbl, nil
}
