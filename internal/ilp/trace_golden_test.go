package ilp

import (
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"sfp/internal/model"
	"sfp/internal/traffic"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden traces")

// iterRe strips the pivot-count field: the node order, LP objective, and
// branching decisions are the determinism contract; the simplex pivot count
// is an implementation detail the sparse kernels are allowed to change.
var iterRe = regexp.MustCompile(` iters=\d+`)

func normalizeTrace(s string) string {
	return iterRe.ReplaceAllString(s, "")
}

// goldenProblems are the fixed instances whose one-worker node traces are
// pinned in testdata/. They cover a pure knapsack and a real placement encode.
func goldenProblems(t testing.TB) map[string]*Problem {
	rng := rand.New(rand.NewSource(17))
	n := 14
	values := make([]float64, n)
	weights := make([]float64, n)
	for i := range values {
		values[i] = rng.Float64()*20 + 1
		weights[i] = rng.Float64()*10 + 1
	}
	kp := knapsack(values, weights, sum(weights)/2.5)

	in := &model.Instance{
		Switch:   model.SwitchConfig{Stages: 4, BlocksPerStage: 4, EntriesPerBlock: 500, CapacityGbps: 60},
		NumTypes: 4,
		Recirc:   1,
		Chains:   traffic.GenChains(rand.New(rand.NewSource(23)), 5, traffic.ChainParams{MeanLen: 3, NumTypes: 4}),
	}
	enc, err := model.Build(in, model.BuildOptions{Consolidate: true, ExactConsistency: true})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*Problem{
		"knapsack14": kp,
		"placement5": {LP: enc.Prob, IntVars: enc.IntVars},
	}
}

// TestSerialTraceGolden pins the node trace of the branch-and-bound loop to
// the trace the pre-fast-path solver produced (testdata/*.golden, generated
// at the seed commit with -update-golden): the sparse simplex, warm-started
// node LPs, and the search must reproduce the same node order, LP
// objectives, and branching decisions bit for bit.
func TestSerialTraceGolden(t *testing.T) {
	for name, prob := range goldenProblems(t) {
		t.Run(name, func(t *testing.T) {
			var sb strings.Builder
			res, err := Solve(prob, Options{Trace: &sb, MaxNodes: 400})
			if err != nil {
				t.Fatal(err)
			}
			got := normalizeTrace(sb.String())
			path := filepath.Join("testdata", name+".golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d nodes, status %v)", path, res.Nodes, res.Status)
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update-golden at the seed commit): %v", err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < len(gl) && i < len(wl); i++ {
					if gl[i] != wl[i] {
						t.Errorf("trace diverges at node line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
						break
					}
				}
				t.Fatalf("node trace differs from pre-fast-path serial trace (%d vs %d lines)", len(gl), len(wl))
			}
		})
	}
}
