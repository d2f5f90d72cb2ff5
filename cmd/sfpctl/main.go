// Command sfpctl runs SFP's control-plane placement over an SFC dataset
// (as produced by sfcgen) and prints the placement plan and its metrics.
//
// Usage:
//
//	sfpctl -algo appro -chains chains.json
//	sfpctl -algo ip -time-limit 30s -chains chains.json
//	sfpctl -algo greedy -no-consolidate -chains chains.json
//
// With -state-dir the run goes through the durable controller instead of
// the bare solver: every mutating transition is written to a write-ahead
// journal in that directory before it touches the data plane. A first run
// provisions the dataset; a later run against the same directory recovers
// the committed state from the journal, reconciles the (rebuilt) switch
// back to it, and reports the drift it repaired — the crash-recovery path.
//
//	sfpctl -state-dir /var/lib/sfp -algo greedy -chains chains.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"sfp/internal/core"
	"sfp/internal/model"
	"sfp/internal/pipeline"
	"sfp/internal/placement"
	"sfp/internal/traffic"
	"sfp/internal/vswitch"
)

func main() {
	var (
		algo      = flag.String("algo", "appro", "placement algorithm: ip | appro | greedy")
		chainsF   = flag.String("chains", "", "SFC dataset JSON (required)")
		stages    = flag.Int("stages", 8, "physical pipeline stages (S)")
		blocks    = flag.Int("blocks", 20, "memory blocks per stage (B)")
		entries   = flag.Int("entries", 1000, "entries per block (E)")
		capGbps   = flag.Float64("capacity", 400, "backplane capacity Gbps (C)")
		recirc    = flag.Int("recirc", 2, "allowed recirculation times (R)")
		noConsol  = flag.Bool("no-consolidate", false, "disable same-type NF consolidation (Eq. 25 memory)")
		timeLimit = flag.Duration("time-limit", 60*time.Second, "IP solver time limit")
		seed      = flag.Int64("seed", 1, "randomized-rounding seed")
		solverW   = flag.Int("solver-workers", 1, "concurrent recirculation trials for -algo appro (0 = GOMAXPROCS); the count never changes the result, and ip always runs one branch-and-bound loop")
		stateDir  = flag.String("state-dir", "", "durable-controller mode: journal every transition to this directory; recover+reconcile on start if it holds prior state")
	)
	flag.Parse()
	if *chainsF == "" {
		fmt.Fprintln(os.Stderr, "sfpctl: -chains is required")
		flag.Usage()
		os.Exit(2)
	}

	raw, err := os.ReadFile(*chainsF)
	if err != nil {
		fatal(err)
	}
	var chains []*model.Chain
	if err := json.Unmarshal(raw, &chains); err != nil {
		fatal(fmt.Errorf("parsing %s: %w", *chainsF, err))
	}
	in := &model.Instance{
		Switch: model.SwitchConfig{
			Stages: *stages, BlocksPerStage: *blocks,
			EntriesPerBlock: *entries, CapacityGbps: *capGbps,
		},
		NumTypes: maxType(chains),
		Recirc:   *recirc,
		Chains:   chains,
	}
	if err := in.Validate(); err != nil {
		fatal(err)
	}

	if *stateDir != "" {
		runDurable(*stateDir, *algo, chains, *stages, *blocks, *entries, *capGbps,
			*recirc, !*noConsol, *timeLimit, *seed)
		return
	}

	workers := *solverW
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	build := model.BuildOptions{Consolidate: !*noConsol}
	var res *placement.Result
	switch *algo {
	case "ip":
		res, err = placement.SolveIP(in, placement.IPOptions{Build: build, TimeLimit: *timeLimit})
	case "appro":
		res, err = placement.SolveApprox(in, placement.ApproxOptions{Build: build, Seed: *seed, Workers: workers})
	case "greedy":
		res, err = placement.SolveGreedy(in, placement.GreedyOptions{Consolidate: !*noConsol})
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *algo))
	}
	if err != nil {
		fatal(err)
	}
	if res.Assignment == nil {
		fatal(fmt.Errorf("no assignment produced (%s)", res.Status))
	}

	fmt.Printf("algorithm:    %s (%s, %.2fs)\n", *algo, res.Status, res.Elapsed.Seconds())
	fmt.Printf("objective:    %.1f (Eq. 1)\n", res.Objective)
	m := res.Metrics
	fmt.Printf("throughput:   %.1f Gbps offloaded, %.1f Gbps backplane load (C=%.0f)\n",
		m.ThroughputGbps, m.BackplaneGbps, *capGbps)
	fmt.Printf("deployed:     %d / %d chains\n", m.Deployed, len(chains))
	fmt.Printf("blocks/stage: %v (util %.1f of %d)\n", m.BlocksPerStage, m.BlockUtil, *blocks)
	fmt.Printf("entries:      %d used, %.1f%% of allocated blocks\n", m.EntriesUsed, 100*m.EntryUtil)

	fmt.Println("\nphysical NF layout (type@stage):")
	for i := range res.Assignment.X {
		for s, on := range res.Assignment.X[i] {
			if on {
				fmt.Printf("  type %-2d @ stage %d\n", i+1, s)
			}
		}
	}
	fmt.Println("\nchain placements (virtual stage = pass*S + stage):")
	for l, c := range chains {
		if !res.Assignment.Deployed(l) {
			fmt.Printf("  chain %-3d NOT deployed (T=%.1f Gbps)\n", c.ID, c.BandwidthGbps)
			continue
		}
		fmt.Printf("  chain %-3d T=%.1f Gbps passes=%d stages=%v\n",
			c.ID, c.BandwidthGbps, res.Assignment.Passes(l, *stages), res.Assignment.Stages[l])
	}
}

// runDurable drives the dataset through the journaled controller: first
// run provisions, later runs against the same state directory recover the
// committed intent from the write-ahead journal and reconcile the switch
// back to it.
func runDurable(dir, algo string, chains []*model.Chain, stages, blocks, entries int,
	capGbps float64, recirc int, consolidate bool, timeLimit time.Duration, seed int64) {
	var algoE core.Algorithm
	switch algo {
	case "ip":
		algoE = core.AlgoIP
	case "appro":
		algoE = core.AlgoApprox
	case "greedy":
		algoE = core.AlgoGreedy
	default:
		fatal(fmt.Errorf("unknown algorithm %q", algo))
	}
	cfg := pipeline.DefaultConfig()
	cfg.Stages, cfg.BlocksPerStage, cfg.EntriesPerBlock, cfg.CapacityGbps = stages, blocks, entries, capGbps
	if cfg.MaxPasses < recirc+1 {
		cfg.MaxPasses = recirc + 1
	}
	opts := core.Options{
		Pipeline: cfg, Consolidate: consolidate, Recirc: recirc, Algorithm: algoE,
		SolverTimeLimit: timeLimit, Seed: seed,
		Logf: func(f string, a ...any) { fmt.Fprintf(os.Stderr, "sfpctl: "+f+"\n", a...) },
	}
	c, err := core.Recover(dir, opts)
	if err != nil {
		fatal(err)
	}
	defer c.Close()

	if c.Provisioned() {
		fmt.Printf("recovered:    committed state from %s\n", dir)
		rep, err := c.Reconcile()
		if err != nil {
			fatal(err)
		}
		fmt.Printf("reconcile:    %d orphans removed, %d re-installed, %d/%d physical installed/removed, %d grown\n",
			len(rep.OrphansRemoved), len(rep.Reinstalled),
			len(rep.PhysicalInstalled), len(rep.PhysicalRemoved), rep.PhysicalGrown)
	} else {
		rng := rand.New(rand.NewSource(seed))
		sfcs := make([]*vswitch.SFC, 0, len(chains))
		for _, ch := range chains {
			sfcs = append(sfcs, traffic.ToSFC(rng, ch, 0))
		}
		m, err := c.Provision(sfcs)
		if err != nil {
			fatal(err)
		}
		info := c.LastProvision()
		fmt.Printf("provisioned:  %d / %d chains deployed via %s (journal: %s)\n",
			m.Deployed, len(chains), info.Used, dir)
	}
	m, err := c.Metrics()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("throughput:   %.1f Gbps offloaded, %.1f Gbps backplane load (C=%.0f)\n",
		m.ThroughputGbps, m.BackplaneGbps, capGbps)
	fmt.Printf("deployed:     %d chains placed, %d tenant allocations on switch\n",
		m.Deployed, c.VSwitch().Tenants())
}

func maxType(chains []*model.Chain) int {
	m := 1
	for _, c := range chains {
		for _, b := range c.NFs {
			if b.Type > m {
				m = b.Type
			}
		}
	}
	return m
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sfpctl:", err)
	os.Exit(1)
}
