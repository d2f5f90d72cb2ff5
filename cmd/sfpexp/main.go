// Command sfpexp regenerates the paper's evaluation figures (Figs. 4–11).
// Each figure prints as a tab-separated table with notes describing the
// configuration and the shape the paper reports.
//
// Usage:
//
//	sfpexp -fig all                # every figure at quick scale
//	sfpexp -fig 6,10 -scale paper  # selected figures at paper scale
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	"sfp/internal/experiments"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure numbers (4..11), 'savings', or 'all'")
		scale   = flag.String("scale", "quick", "experiment scale: quick | paper")
		workers = flag.Int("workers", 1, "traffic-engine workers for the data-plane figures (0 = GOMAXPROCS; 1 = sequential reference)")
		solverW = flag.Int("solver-workers", 1, "control-plane workers: SFP-Appro recirculation trials and the lifecycle controller's decomposed pricing (0 = GOMAXPROCS); the count never changes a result, and SFP-IP always runs one branch-and-bound loop")
	)
	flag.Parse()

	var sc experiments.Scale
	switch *scale {
	case "quick":
		sc = experiments.QuickScale()
	case "paper":
		sc = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "sfpexp: unknown scale %q\n", *scale)
		os.Exit(2)
	}
	sc.SolverWorkers = *solverW
	if sc.SolverWorkers == 0 {
		sc.SolverWorkers = runtime.GOMAXPROCS(0)
	}

	want := map[string]bool{}
	if *figs == "all" {
		for f := 4; f <= 11; f++ {
			want[fmt.Sprint(f)] = true
		}
		want["savings"] = true
		want["latency-load"] = true
	} else {
		for _, f := range strings.Split(*figs, ",") {
			want[strings.TrimSpace(f)] = true
		}
	}

	runners := []struct {
		fig string
		run func() (*experiments.Table, error)
	}{
		{"4", func() (*experiments.Table, error) { return experiments.Fig4Workers(0, *workers) }},
		{"5", func() (*experiments.Table, error) { return experiments.Fig5Workers(0, *workers) }},
		{"6", func() (*experiments.Table, error) { return experiments.Fig6(sc) }},
		{"7", func() (*experiments.Table, error) { return experiments.Fig7(sc) }},
		{"8", func() (*experiments.Table, error) { return experiments.Fig8(sc) }},
		{"9", func() (*experiments.Table, error) { return experiments.Fig9(sc) }},
		{"10", func() (*experiments.Table, error) { return experiments.Fig10(sc) }},
		{"11", func() (*experiments.Table, error) { return experiments.Fig11(sc) }},
		{"savings", func() (*experiments.Table, error) { return experiments.OffloadSavings(sc) }},
		{"latency-load", func() (*experiments.Table, error) { return experiments.LatencyUnderLoad() }},
		// Not part of "all": steady-state churn acceptance/utilization vs
		// offered load, a sweep beyond the paper's evaluation.
		{"lifecycle", func() (*experiments.Table, error) { return experiments.Lifecycle(sc) }},
	}
	ran := false
	for _, r := range runners {
		if !want[r.fig] {
			continue
		}
		ran = true
		tbl, err := r.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "sfpexp: fig %s: %v\n", r.fig, err)
			os.Exit(1)
		}
		if _, err := tbl.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sfpexp:", err)
			os.Exit(1)
		}
		fmt.Println()
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "sfpexp: no figures matched %q (valid: 4..11, savings, latency-load, lifecycle)\n", *figs)
		os.Exit(2)
	}
}
