// Package experiments regenerates every figure of the paper's evaluation
// (§VI): the data-plane throughput/latency comparisons against the DPDK
// baseline (Figs. 4–5), the placement quality and resource-utilization
// sweeps (Figs. 6–7), the solver runtime and early-termination studies
// (Figs. 8–9), the algorithm comparison (Fig. 10), and runtime update
// (Fig. 11). Each experiment returns a Table whose rows are the series the
// paper plots; EXPERIMENTS.md records the paper-vs-measured comparison.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"strings"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

// Table is one experiment's output: a header row and numeric rows.
type Table struct {
	// Title identifies the figure ("Fig. 6a ...").
	Title string
	// Columns names each value column; the first is the x axis.
	Columns []string
	// Rows are the data points.
	Rows [][]float64
	// Notes carry caveats (scale reductions, time caps hit, seeds).
	Notes []string
}

// WriteTo renders the table as aligned text.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	var b strings.Builder
	fmt.Fprintf(&b, "# %s\n", t.Title)
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "# note: %s\n", n)
	}
	fmt.Fprintln(&b, strings.Join(t.Columns, "\t"))
	for _, row := range t.Rows {
		parts := make([]string, len(row))
		for i, v := range row {
			parts[i] = fmt.Sprintf("%.4g", v)
		}
		fmt.Fprintln(&b, strings.Join(parts, "\t"))
	}
	n, err := io.WriteString(w, b.String())
	return int64(n), err
}

// Scale sizes the experiments. The paper's exact settings are expensive on
// a from-scratch simplex (Gurobi they are not), so Quick is the default and
// Paper approaches the published parameters.
type Scale struct {
	// Seeds is how many independent datasets each point averages over
	// (the paper uses five).
	Seeds int
	// Fig6Ls sweeps the number of candidate SFCs.
	Fig6Ls []int
	// Fig7Recircs sweeps allowed recirculation counts.
	Fig7Recircs []int
	// Fig7L is the candidate count for the recirculation study.
	Fig7L int
	// Fig7ChainLen is the fixed chain length (paper: 8).
	Fig7ChainLen int
	// Fig8IPLs / Fig8ApproxLs sweep solver-runtime instance sizes.
	Fig8IPLs, Fig8ApproxLs []int
	// Fig8IPTimeCapSec caps each IP solve (the explosion is the point;
	// capped points are flagged in Notes).
	Fig8IPTimeCapSec float64
	// Fig9L is the instance size for early termination.
	Fig9L int
	// Fig9LimitsSec is the runtime-limit sweep.
	Fig9LimitsSec []float64
	// Fig10Ls sweeps the algorithm comparison.
	Fig10Ls []int
	// Fig10IPTimeCapSec caps the IP reference per point.
	Fig10IPTimeCapSec float64
	// Fig10Switch scales the switch down proportionally to the Fig10Ls so
	// the contention regime of the paper's L=40..60 runs (capacity and
	// memory binding) is preserved at tractable instance sizes.
	Fig10Switch model.SwitchConfig
	// Fig11Switch does the same for the runtime-update episode: the
	// initially allocated set must saturate the switch so refills matter.
	Fig11Switch model.SwitchConfig
	// Fig11DropRates sweeps the fraction of live SFCs departing.
	Fig11DropRates []float64
	// Fig11Allocated / Fig11Candidates size the update experiment
	// (paper: 20 allocated, 50 candidates).
	Fig11Allocated, Fig11Candidates int
	// Recirc is the default allowed recirculation (paper: 2 or 3).
	Recirc int
	// MeanChainLen is J̄ (paper: 5).
	MeanChainLen int
	// SolverWorkers sets the control-plane solver worker count for the
	// placement figures: branch-and-bound workers for SFP-IP and concurrent
	// recirculation trials for SFP-Appro (0 or 1 = serial reference).
	// Any worker count proves the same optimum for a fixed seed; when
	// optima tie the argmax may differ.
	SolverWorkers int
	// LifecycleTarget is the steady-state live-tenant population of the
	// lifecycle churn experiment (0 = Lifecycle's default).
	LifecycleTarget int
	// LifecycleLoads sweeps the offered-load multiplier (arrival rate ÷
	// the rate that holds the population at LifecycleTarget). Zero means
	// Lifecycle's defaults.
	LifecycleLoads []float64
}

// QuickScale returns a configuration that regenerates every figure's shape
// in a couple of minutes total.
func QuickScale() Scale {
	return Scale{
		Seeds:             2,
		Fig6Ls:            []int{10, 20, 30},
		Fig7Recircs:       []int{0, 1, 2, 3},
		Fig7L:             15,
		Fig7ChainLen:      8,
		Fig8IPLs:          []int{2, 4, 6},
		Fig8ApproxLs:      []int{10, 20, 30},
		Fig8IPTimeCapSec:  20,
		Fig9L:             8,
		Fig9LimitsSec:     []float64{0.05, 0.5, 2, 5, 10},
		Fig10Ls:           []int{10, 20, 30},
		Fig10IPTimeCapSec: 15,
		Fig10Switch:       model.SwitchConfig{Stages: 8, BlocksPerStage: 6, EntriesPerBlock: 1000, CapacityGbps: 110},
		Fig11Switch:       model.SwitchConfig{Stages: 8, BlocksPerStage: 20, EntriesPerBlock: 1000, CapacityGbps: 60},
		Fig11DropRates:    []float64{0.1, 0.25, 0.5, 0.75, 1.0},
		Fig11Allocated:    10,
		Fig11Candidates:   25,
		Recirc:            2,
		MeanChainLen:      5,
		LifecycleTarget:   1500,
		LifecycleLoads:    []float64{0.6, 0.8, 1.0, 1.2, 1.5},
	}
}

// PaperScale approaches the published parameters (minutes to hours).
func PaperScale() Scale {
	return Scale{
		Seeds:             5,
		Fig6Ls:            []int{10, 20, 30, 40, 50},
		Fig7Recircs:       []int{0, 1, 2, 3, 4, 5, 6},
		Fig7L:             15,
		Fig7ChainLen:      8,
		Fig8IPLs:          []int{2, 4, 6, 8, 10},
		Fig8ApproxLs:      []int{10, 20, 30, 40, 50},
		Fig8IPTimeCapSec:  120,
		Fig9L:             12,
		Fig9LimitsSec:     []float64{0.05, 0.5, 2, 5, 10, 30, 60},
		Fig10Ls:           []int{5, 10, 15, 20},
		Fig10IPTimeCapSec: 60,
		Fig10Switch:       model.SwitchConfig{Stages: 8, BlocksPerStage: 10, EntriesPerBlock: 1000, CapacityGbps: 150},
		Fig11Switch:       model.SwitchConfig{Stages: 8, BlocksPerStage: 20, EntriesPerBlock: 1000, CapacityGbps: 100},
		Fig11DropRates:    []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0},
		Fig11Allocated:    20,
		Fig11Candidates:   50,
		Recirc:            2,
		MeanChainLen:      5,
		LifecycleTarget:   20000,
		LifecycleLoads:    []float64{0.6, 0.8, 1.0, 1.2, 1.5, 2.0},
	}
}

// genInstanceSw is genInstance with an explicit switch configuration.
func genInstanceSw(seed int64, L, meanLen, recirc int, sw model.SwitchConfig) *model.Instance {
	in := genInstance(seed, L, meanLen, recirc)
	in.Switch = sw
	return in
}

// genInstance builds one control-plane instance per the paper's dataset
// description (§VI-A): I = 10 NF types, rules uniform in [100, 2100],
// long-tail bandwidth, the §VI-C switch.
func genInstance(seed int64, L, meanLen, recirc int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Switch:   model.DefaultSwitchConfig(),
		NumTypes: 10,
		Recirc:   recirc,
		Chains:   traffic.GenChains(rng, L, traffic.ChainParams{MeanLen: meanLen}),
	}
}

// genInstanceFixedLen is genInstance with exact chain length (Fig. 7).
func genInstanceFixedLen(seed int64, L, chainLen, recirc int) *model.Instance {
	rng := rand.New(rand.NewSource(seed))
	return &model.Instance{
		Switch:   model.DefaultSwitchConfig(),
		NumTypes: 10,
		Recirc:   recirc,
		Chains:   traffic.GenChainsFixedLen(rng, L, chainLen, traffic.ChainParams{MeanLen: chainLen}),
	}
}

// mean averages a slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
