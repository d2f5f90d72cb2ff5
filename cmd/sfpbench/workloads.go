package main

import (
	"fmt"

	"sfp/internal/core"
	"sfp/internal/lifecycle"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
)

// spec is one workload: the controller it builds, the tenant stream it
// offers, and how much data-plane work rides beside every transition. Every
// workload lives the same life — provision a fleet, churn it under a virtual
// clock, crash, recover, reconcile — so every end-to-end metric is measured
// on every workload; the specs differ in which layers that life loads.
type spec struct {
	name, why string

	algo core.Algorithm
	// live is the steady-state population (lifecycle TargetLive); load and
	// tick are the lifecycle offered-load multiplier and virtual seconds per
	// churn step.
	live       int
	load, tick float64
	// fat tenants carry 2-4 NFs of 16-48 rules at 50 Mbit/user against a
	// backplane sized to bind; thin ones are the lifecycle default shape
	// (1-3 NFs of 1-3 rules, 1 Mbit/user).
	fat bool
	// snapshotEvery is core.Options.SnapshotEvery (0 = the core default).
	snapshotEvery int
	// remote mirrors every transition over loopback p4rt to a second switch
	// and sends first packets there.
	remote bool
	// replay is the packets replayed through traffic.Engine after each tick.
	replay int
	// bulk interleaves a decomposed full solve of a contended candidate set
	// and a crash/recover/reconcile cycle every cycleTicks ticks.
	bulk       bool
	cycleTicks int
	// warmTicks churn before the measured window; minTicks is the fixed
	// per-repetition horizon that accept_ratio and the trace hash cover (the
	// window keeps ticking past it until its time is up).
	warmTicks, minTicks int
}

var workloads = []spec{
	{
		name: "churn-greedy-10k",
		why:  "lifecycle headline: core bookkeeping, greedy replan, WAL and batch install carry it; lp/ilp/p4rt idle",
		algo: core.AlgoGreedy, live: 10000, load: 1, tick: 1,
		replay: 1024, warmTicks: 10, minTicks: 70,
	},
	{
		name: "churn-ip-2k",
		why:  "uncontended pinned-IP replans: residual patching, warm lp and ilp root dominate; WAL/vswitch share small",
		algo: core.AlgoIP, live: 2000, load: 1, tick: 2.5,
		replay: 1024, warmTicks: 10, minTicks: 150,
	},
	{
		name: "stack-fat-1k",
		why:  "whole stack over loopback p4rt with rule-heavy tenants: codec, RTT, inserts and packet parse on the path",
		algo: core.AlgoGreedy, live: 1000, load: 1.3, tick: 4, fat: true, remote: true,
		replay: 1024, warmTicks: 10, minTicks: 100,
	},
	{
		name: "replay-churn-64b",
		why:  "8192 64B packets replayed beside every churn step on the same tables: lookup cost vs insert-time work",
		algo: core.AlgoGreedy, live: 4000, load: 1, tick: 1,
		replay: 8192, warmTicks: 10, minTicks: 100,
	},
	{
		name: "bulk-10k",
		why:  "same layers in bulk: decomposed full solve of 10k contended candidates, journal recover, cold reconcile",
		algo: core.AlgoGreedy, live: 10000, load: 1, tick: 1, snapshotEvery: 32,
		replay: 1024, bulk: true, cycleTicks: 20, warmTicks: 10, minTicks: 80,
	},
}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// quick shrinks a workload to a tenth of its population so the whole suite
// smoke-runs in seconds; names, structure and batch sizes are unchanged.
func (s spec) quick() spec {
	full := s.live
	s.live /= 10
	if s.algo == core.AlgoIP {
		// Below 512 candidates Provision runs the exact IP, which rides its
		// ten-second limit; stay on the decomposed path the full size uses.
		s.live = max(s.live, placement.DefaultDecomposeAbove+100)
	}
	// Same arrivals per tick as the full size, so batches keep their shape.
	s.tick *= float64(full) / float64(s.live)
	s.replay = min(s.replay, 512)
	s.warmTicks = 2
	if s.bulk {
		s.cycleTicks = 25
	}
	return s
}

// lifecycleConfig is the tenant stream and switch the workload runs on.
func (s *spec) lifecycleConfig(seed int64) lifecycle.Config {
	cfg := lifecycle.Config{
		Seed:       seed,
		TargetLive: s.live,
		MeanTTL:    1000,
		Tick:       s.tick,
		Load:       s.load,
	}
	if s.fat {
		cfg.ChainLenMin, cfg.ChainLenMax = 2, 4
		cfg.RuleMin, cfg.RuleMax = 16, 48
		cfg.UserRateGbps = 0.05
		cfg = cfg.WithDefaults()
		// Mean demand is 2.5 users x 50 Mbit x ~1.1 passes; a backplane of
		// 0.14 Gbit per target tenant binds at load 1.3, so the switch, not
		// the SLO filter, refuses the overload.
		// The odd 0.02 keeps sums of 50 Mbit demands from landing exactly on
		// the capacity, where the planner's and the switch's float sums can
		// disagree about the last tenant and the install fails.
		cfg.Pipeline.CapacityGbps = 0.14*float64(s.live) + 0.02
		// Memory stays generous on purpose. On a memory-tight switch the
		// install can refuse a placement the model admitted (catch-all
		// entries and block rounding are not in the model's memory rows);
		// the benchmark wants capacity refusals, not failed transitions.
		cfg.Pipeline.BlocksPerStage *= 3
	}
	return cfg.WithDefaults()
}

// controllerOptions are the main controller's options.
func (s *spec) controllerOptions(cfg lifecycle.Config) core.Options {
	o := cfg.ControllerOptions()
	o.Algorithm = s.algo
	o.SnapshotEvery = s.snapshotEvery
	return o
}

// contendedPipeline is the switch of the bulk full solve: memory (blocks of
// 16 entries, about four fifths of what the candidates ask for) and the
// backplane both bind, so the decomposition has to price tenants out. One
// pass only: the install adds a catch-all entry per recirculating pass on top
// of the rules the placement model counts, which on 16-entry blocks rounds a
// cell over its budget and fails the install.
func contendedPipeline(candidates int) pipeline.Config {
	cfg := pipeline.DefaultConfig()
	cfg.MaxPasses = 1
	cfg.EntriesPerBlock = 16
	cfg.BlocksPerStage = max(candidates/40, 8)
	cfg.CapacityGbps = 0.002*float64(candidates) + 0.0005 // off the 1 Mbit grid: no exact ties
	return cfg
}
