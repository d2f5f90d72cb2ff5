// Command sfpbench is the SFP stack's one benchmark: five seeded workloads
// drive the controller, its journal, the switch and — on one workload — the
// p4rt channel through the same life (provision, churn, crash, recover,
// reconcile), report the end-to-end numbers an operator sees, verify every
// output, and in a separate traced run time each layer from outside. See
// README.md for the metric and workload tables.
//
// The benchmark driver runs
//
//	go run -C cmd/sfpbench . --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// and reads the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"sfp/internal/model"
)

// runResult is one workload run: the driver's result line plus what the
// table and selfcheck need.
type runResult struct {
	workload  string
	seed      int64
	traced    bool
	correct   bool
	attempted int
	failed    int
	metrics   map[string]metric
	hash      traceHash
	spans     []span // traced runs only
	err       error
}

// selfTolerance is how far below zero, as a share of the real call, a core
// self time may read before the run fails.
const selfTolerance = 0.10

// resultLine is the driver contract's result object.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command's flags.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	reps      int
	trace     string
	quick     bool
	jsonOnly  bool
	selfcheck bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the same seed gives the same tenants, packets and trace")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured wall seconds per workload, split over the repetitions")
	flag.IntVar(&o.reps, "reps", 3, "repetitions per workload (each sets up, measures, crashes and recovers)")
	flag.StringVar(&o.trace, "trace", "0", "0: end-to-end metrics; 1: traced run, per-layer metrics; a file name: traced run that also writes its spans there")
	flag.BoolVar(&o.quick, "quick", false, "tenth-size workloads (smoke test)")
	flag.BoolVar(&o.jsonOnly, "json", false, "print only JSON lines")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run the suite twice and fail if two runs of the same binary disagree by more than the bounds in BENCHMARK.json")
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "sfpbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "sfpbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.reps < 1 || o.seconds <= 0 {
		return fmt.Errorf("-reps and -seconds must be positive")
	}
	specs, err := selectWorkloads(o)
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(".", ".bench_work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	host, err := fingerprint(work)
	if err != nil {
		return err
	}
	printHost(o, host)
	if o.selfcheck {
		return selfcheck(o, specs, work, host)
	}
	failed := 0
	var traced []tracedRun
	for _, sp := range specs {
		res := runWorkload(&sp, o, work, host)
		printResult(o, res)
		if !res.correct || res.failed > 0 {
			failed++
		}
		traced = append(traced, tracedRun{res.workload, res.seed, res.spans})
	}
	if o.trace != "0" && o.trace != "1" {
		if err := writeSpans(o.trace, host, traced); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d workloads failed", failed, len(specs))
	}
	return nil
}

func selectWorkloads(o options) ([]spec, error) {
	var specs []spec
	if o.workload == "all" {
		specs = append(specs, workloads...)
	} else {
		sp, err := findWorkload(o.workload)
		if err != nil {
			return nil, err
		}
		specs = []spec{*sp}
	}
	if o.quick {
		for i := range specs {
			specs[i] = specs[i].quick()
		}
	}
	return specs, nil
}

// runWorkload runs one workload's repetitions and reduces them to metrics.
// An untraced run reports the end-to-end metrics. A traced run reports the
// per-layer ones: its first repetition stays untraced (the baseline the
// tracing overhead is measured against), the rest record spans and feed the
// shadow layers.
func runWorkload(sp *spec, o options, work string, host hostInfo) *runResult {
	res := &runResult{workload: sp.name, seed: o.seed, traced: o.trace != "0"}
	var tr *tracer
	reps := o.reps
	if res.traced {
		tr = newTracer()
		reps = max(reps, 2)
	}
	window := time.Duration(o.seconds / float64(reps) * float64(time.Second))
	var all, traced pooled
	var baseAdmit []float64 // the untraced repetition's admit samples
	layers := newLayerSamples()
	var residualBuilds int64
	fail := func(err error) *runResult {
		res.err = err
		return res
	}
	for rep := 0; rep < reps; rep++ {
		dir := filepath.Join(work, fmt.Sprintf("%s-rep%d", sp.name, rep))
		repTr := tr
		if rep == 0 {
			repTr = nil
		}
		builds := model.ResidualBuilds()
		r, err := runLife(sp, o.seed, window, dir, rep, repTr)
		os.RemoveAll(dir)
		res.attempted += r.attempted
		res.failed += r.failed
		if err != nil {
			return fail(fmt.Errorf("repetition %d: %w", rep, err))
		}
		if rep == 0 {
			res.hash = r.hash
			residualBuilds = model.ResidualBuilds() - builds
			baseAdmit = r.admitMs
		} else if r.hash != res.hash {
			return fail(fmt.Errorf("repetition %d: trace hash %016x differs from repetition 0's %016x", rep, r.hash, res.hash))
		}
		all.add(r)
		if repTr != nil {
			traced.add(r)
			layers.merge(r.layer)
		}
	}
	if !res.traced {
		res.metrics, res.err = all.endToEndMetrics(sp)
	} else {
		res.metrics = layerMetrics(layers, &traced, host, median(baseAdmit), median(traced.admitMs), residualBuilds)
		// core's self time is a difference of noisy medians and small next to
		// two fsyncs; only shadows that clearly outweigh the real call show a
		// broken shadow.
		for _, c := range []struct{ self, whole string }{
			{"core.arrive_self_ms", "core.arrive_many_ms"},
			{"core.depart_self_ms", "core.depart_many_ms"},
		} {
			v, whole := res.metrics[c.self].Value, median(layers.samples[c.whole])
			if v < -selfTolerance*whole {
				res.err = fmt.Errorf("%s is %.3f of a %.3f ms call: the shadows did more work than the real call", c.self, v, whole)
			}
		}
		res.spans = tr.spans
	}
	res.correct = res.err == nil
	return res
}

func printHost(o options, h hostInfo) {
	if o.jsonOnly {
		b, _ := json.Marshal(struct {
			Host hostInfo `json:"host"`
		}{h})
		fmt.Println(string(b))
		return
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s commit=%s fsync_probe=%.0fus\n",
		h.NProc, h.GOMAXPROCS, h.GoVersion, h.GitCommit, h.FsyncProbeUs)
	if h.Note != "" {
		fmt.Println("host: NOTE:", h.Note)
	}
	fmt.Println("load: closed loop, one client goroutine, virtual-clock ticks; remote traffic crosses the loopback interface, not a real link")
}

// printResult prints the workload's table (unless -json) and then the
// driver's result line, which is always the last line of a workload's output.
func printResult(o options, r *runResult) {
	if !o.jsonOnly {
		kind, defs := "end-to-end", endToEnd
		if r.traced {
			kind, defs = "per-layer (traced)", perLayer
		}
		fmt.Printf("\n== %s  seed=%d  %s  trace_hash=%016x\n", r.workload, r.seed, kind, uint64(r.hash))
		for _, d := range defs {
			m, ok := r.metrics[d.name]
			if !ok {
				continue
			}
			line := fmt.Sprintf("  %-32s %14.4f %-7s", d.name, m.Value, m.Unit)
			if m.n > 0 {
				line += fmt.Sprintf(" n=%d", m.n)
			}
			if m.note != "" {
				line += "  (" + m.note + ")"
			}
			fmt.Println(line)
		}
		ratio := 0.0
		if r.attempted > 0 {
			ratio = float64(r.failed) / float64(r.attempted)
		}
		fmt.Printf("  %-32s %14.4f %-7s n=%d\n", "fail_ratio", ratio, "ratio", r.attempted)
		if r.err != nil {
			fmt.Println("  FAILED:", r.err)
		}
	} else {
		b, _ := json.Marshal(struct {
			Workload  string `json:"workload"`
			Seed      int64  `json:"seed"`
			TraceHash string `json:"trace_hash"`
			Error     string `json:"error,omitempty"`
		}{r.workload, r.seed, fmt.Sprintf("%016x", uint64(r.hash)), errString(r.err)})
		fmt.Println(string(b))
	}
	b, _ := json.Marshal(resultLine{Correct: r.correct, Attempted: max(r.attempted, 1), Failed: r.failed, Metrics: r.metrics})
	fmt.Println(string(b))
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// benchmarkFile is the part of BENCHMARK.json selfcheck reads.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

// loadBenchmarkFile finds BENCHMARK.json in the working directory or one of
// its parents (go run -C leaves the process in cmd/sfpbench).
func loadBenchmarkFile() (*benchmarkFile, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var f benchmarkFile
			if err := json.Unmarshal(b, &f); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &f, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

// selfcheck is the "two sets of runs agree" criterion, runnable by anyone:
// every workload runs twice untraced and twice traced on this one binary.
// Each end-to-end metric must agree within its own bound in BENCHMARK.json;
// accept_ratio, the trace hash, the failure count and the hot path's
// allocation count must repeat exactly.
func selfcheck(o options, specs []spec, work string, host hostInfo) error {
	bf, err := loadBenchmarkFile()
	if err != nil {
		return err
	}
	var problems []string
	for _, sp := range specs {
		var runs [2][2]*runResult // [pass][traced]
		for pass := 0; pass < 2; pass++ {
			for t, trace := range []string{"0", "1"} {
				ro := o
				ro.trace = trace
				r := runWorkload(&sp, ro, work, host)
				printResult(o, r)
				if !r.correct || r.failed > 0 {
					return fmt.Errorf("%s: run failed: %v", sp.name, r.err)
				}
				runs[pass][t] = r
			}
		}
		a, b := runs[0][0], runs[1][0]
		for _, e := range bf.EndToEnd {
			va, vb := a.metrics[e.Name].Value, b.metrics[e.Name].Value
			if va == 0 {
				problems = append(problems, fmt.Sprintf("%s %s: zero", sp.name, e.Name))
				continue
			}
			worse := (vb - va) / va
			if worse < 0 {
				worse = -worse
			}
			if worse > e.Bound {
				problems = append(problems, fmt.Sprintf("%s %s: %.4g vs %.4g differ by %.1f%%, bound %.0f%%",
					sp.name, e.Name, va, vb, 100*worse, 100*e.Bound))
			}
		}
		if va, vb := a.metrics["accept_ratio"].Value, b.metrics["accept_ratio"].Value; va != vb {
			problems = append(problems, fmt.Sprintf("%s accept_ratio does not repeat: %v vs %v", sp.name, va, vb))
		}
		for _, r := range []*runResult{b, runs[0][1], runs[1][1]} {
			if r.hash != a.hash {
				problems = append(problems, fmt.Sprintf("%s trace hash does not repeat: %016x vs %016x", sp.name, uint64(a.hash), uint64(r.hash)))
			}
		}
		const allocs = "pipeline.allocs_per_pkt"
		if va, vb := runs[0][1].metrics[allocs].Value, runs[1][1].metrics[allocs].Value; va != vb {
			problems = append(problems, fmt.Sprintf("%s %s does not repeat: %v vs %v", sp.name, allocs, va, vb))
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Fprintln(os.Stderr, "selfcheck:", p)
	}
	if len(problems) > 0 {
		return fmt.Errorf("selfcheck: %d disagreements", len(problems))
	}
	if !o.jsonOnly {
		fmt.Printf("\nselfcheck: two sets of runs agree within BENCHMARK.json's bounds on %d workloads (GOMAXPROCS=%d)\n",
			len(specs), runtime.GOMAXPROCS(0))
	}
	return nil
}
