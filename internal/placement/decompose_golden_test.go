package placement

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"sfp/internal/model"
)

// placementHash is an FNV-64a digest of an assignment's box stages (chain
// by chain, undeployed chains included) followed by its physical layout.
func placementHash(a *model.Assignment) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	word := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	for _, st := range a.Stages {
		word(len(st))
		for _, k := range st {
			word(k)
		}
	}
	for _, row := range a.X {
		for _, x := range row {
			if x {
				word(1)
			} else {
				word(0)
			}
		}
	}
	return h.Sum64()
}

// TestDecomposedGolden pins SolveDecomposed's exact output — iteration
// count, objective and bound to the bit, and a hash of the placement — on
// contended instances in both memory modes and on a bulk instance shaped
// like sfpbench's full solve. The solver's bookkeeping may get faster; any
// change to a decision it takes shows here.
func TestDecomposedGolden(t *testing.T) {
	type golden struct {
		iters            int
		objBits, bndBits uint64
		hash             uint64
	}
	// contended[seed-1][recirc/2][m]: m = 0 consolidated, 1 not.
	contended := [3][2][2]golden{
		{
			{{166, 0x40d357edbd4ca1c8, 0x40d4524fa0bae78d, 0xe4bc4faefd589827}, {41, 0x40d08d4db3709aa6, 0x40d0ac6f671a73bd, 0xc6f62bca441f5ffa}},
			{{300, 0x40d2c707e5dabf40, 0x40d45d7bc44002c2, 0xc15ee0c1bea6d336}, {42, 0x40d092059ab8fb7d, 0x40d0bbf0b9a49c97, 0x28c3bebc6b2fb3f1}},
		},
		{
			{{183, 0x40d3581e465bca4c, 0x40d44fad4532ae91, 0x7b1954d0c8e94747}, {41, 0x40d0b379b2d76075, 0x40d0db3e083ad3f2, 0xe81855a4c3da1afd}},
			{{232, 0x40d27c1e2dcc9105, 0x40d45938a4da12bd, 0xd752b760365a2d66}, {48, 0x40d0b0af46483804, 0x40d0da75d7749be9, 0x4a44ab60743a340f}},
		},
		{
			{{200, 0x40d3201b3f739e14, 0x40d412e5d6ab20a0, 0x580f17cf289518df}, {38, 0x40d071f46e3c263b, 0x40d092df60e2e201, 0xfef65d5ac9e848a7}},
			{{300, 0x40d2646d51e83d23, 0x40d41f414eec57f1, 0x63579b4f016182a1}, {41, 0x40d074ef27c2f683, 0x40d09d375d6b1415, 0xb44f0df7c162db4b}},
		},
	}
	check := func(name string, in *model.Instance, cons bool, want golden) {
		t.Helper()
		res, err := SolveDecomposed(in, DecomposeOptions{Build: model.BuildOptions{Consolidate: cons}})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got := golden{res.DualIters, math.Float64bits(res.Objective), math.Float64bits(res.Bound), placementHash(res.Assignment)}
		if got != want {
			t.Errorf("%s: got {%d, %#x, %#x, %#x} (obj %v, bound %v), want {%d, %#x, %#x, %#x}", name,
				got.iters, got.objBits, got.bndBits, got.hash, res.Objective, res.Bound,
				want.iters, want.objBits, want.bndBits, want.hash)
		}
	}
	for seed := int64(1); seed <= 3; seed++ {
		for _, recirc := range []int{0, 2} {
			for m, cons := range []bool{true, false} {
				name := fmt.Sprintf("seed=%d/R=%d/cons=%v", seed, recirc, cons)
				check(name, contendedInstance(seed, 1000, recirc), cons, contended[seed-1][recirc/2][m])
			}
		}
	}
	check("bulk-2k", bulkInstance(fullSolveSeed, 2000), true,
		golden{173, 0x4021fdb19335d812, 0x402250d17eb56217, 0xd90a30e44aa0cc7b})
}
