package placement

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"sfp/internal/model"
)

// placed is one chain committed to a greedyState, with its box stages.
type placed struct {
	c      *model.Chain
	stages []int
}

// checkRecount asserts g's rules and blocks equal a recount from the
// committed chains: rules summed box by box, blocks as Σ_i ⌈rules/E⌉ per
// stage when consolidated and as the sum of every box's ⌈rules/E⌉
// otherwise; and the backplane load equals the summed chain loads.
func checkRecount(t *testing.T, g *greedyState, live []placed, where string) {
	t.Helper()
	in := g.in
	S, E := in.Switch.Stages, in.Switch.EntriesPerBlock
	rules := make([][]int, in.NumTypes)
	for i := range rules {
		rules[i] = make([]int, S)
	}
	boxBlocks := make([]int, S)
	load := 0.0
	for _, p := range live {
		for j, k := range p.stages {
			b := p.c.NFs[j]
			rules[b.Type-1][k%S] += b.Rules
			boxBlocks[k%S] += ceilDiv(b.Rules, E)
		}
		load += chainLoad(p.c, p.stages, S)
	}
	blocks := boxBlocks
	if g.cons {
		blocks = make([]int, S)
		for i := range rules {
			for s, r := range rules[i] {
				blocks[s] += ceilDiv(r, E)
			}
		}
	}
	if !reflect.DeepEqual(g.rules, rules) {
		t.Fatalf("%s: rules %v, recount %v", where, g.rules, rules)
	}
	if !reflect.DeepEqual(g.blocks, blocks) {
		t.Fatalf("%s: blocks %v, recount %v", where, g.blocks, blocks)
	}
	if math.Abs(g.capUsed-load) > 1e-9*(1+load) {
		t.Fatalf("%s: backplane load %v, recount %v", where, g.capUsed, load)
	}
}

// TestGreedyStateBlocksMatchRecount drives a greedyState through random
// tryChain, commit (successes and failures that give boxes back), pin and
// release steps in both memory modes on a switch where memory and the
// backplane bind, and requires its incremental block count to equal a
// recount after every step.
func TestGreedyStateBlocksMatchRecount(t *testing.T) {
	for _, cons := range []bool{true, false} {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(900 + seed))
			in := bindingInstance(rng, 0)
			K := in.K()
			g := newGreedyState(in, cons)
			var live []placed
			fails := 0
			for step := 0; step < 400; step++ {
				where := fmt.Sprintf("cons=%v seed %d step %d", cons, seed, step)
				c := bindingChain(rng, step, in.NumTypes)
				if len(c.NFs) > K {
					continue
				}
				// Random strictly increasing virtual stages.
				stages := rng.Perm(K)[:len(c.NFs)]
				sort.Ints(stages)
				switch r := rng.Intn(8); {
				case r < 3:
					st := make([]int, len(c.NFs))
					if g.tryChain(c, st) {
						g.account(c, st, 1)
						live = append(live, placed{c, st})
					} else {
						fails++
					}
				case r < 5:
					if g.commit(c, stages) {
						g.account(c, stages, 1)
						live = append(live, placed{c, stages})
					} else {
						fails++
					}
				case r < 6:
					g.pin(c, stages)
					live = append(live, placed{c, stages})
				case len(live) > 0:
					i := rng.Intn(len(live))
					g.release(live[i].c, live[i].stages)
					live = append(live[:i], live[i+1:]...)
				}
				checkRecount(t, g, live, where)
			}
			if fails == 0 {
				t.Fatalf("cons=%v seed %d: no placement failed; the give-back path went unexercised", cons, seed)
			}
		}
	}
}
