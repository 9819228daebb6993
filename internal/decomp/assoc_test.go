package decomp

import (
	"testing"

	"turbosyn/internal/logic"
)

func TestAssociativeFastPathShapes(t *testing.T) {
	cases := []struct {
		name  string
		fn    *logic.TT
		k     int
		depth int
	}{
		{"and12", logic.AndAll(12), 4, 2},
		{"or15", logic.OrAll(15), 4, 2},
		{"xor16", logic.XorAll(16), 4, 2},
		{"nand9", logic.NandAll(9), 3, 2},
		{"nor8", logic.NorAll(8), 3, 2},
		{"xnor8", logic.NewTT(8).Not(logic.XorAll(8)), 4, 2},
	}
	for _, tc := range cases {
		tr, ok, _ := DecomposeEffort(tc.fn, tc.k, tc.depth, nil, Effort{})
		if !ok {
			t.Errorf("%s: decomposition failed", tc.name)
			continue
		}
		if tr.MaxFanin() > tc.k {
			t.Errorf("%s: fanin %d > %d", tc.name, tr.MaxFanin(), tc.k)
		}
		if tr.Depth() > tc.depth {
			t.Errorf("%s: depth %d > %d", tc.name, tr.Depth(), tc.depth)
		}
		if !tr.TT().Equal(tc.fn) {
			t.Errorf("%s: function changed", tc.name)
		}
	}
}

func TestAssociativeRespectsBudget(t *testing.T) {
	// 16-input AND at K=2 needs depth 4; budget 3 must fail cleanly.
	if _, ok, _ := DecomposeEffort(logic.AndAll(16), 2, 3, nil, Effort{}); ok {
		t.Fatal("budget violation accepted")
	}
	if tr, ok, _ := DecomposeEffort(logic.AndAll(16), 2, 4, nil, Effort{}); !ok || tr.Depth() > 4 {
		t.Fatal("depth-4 tree should exist")
	}
}

func TestAssociativeEmbeddedSupport(t *testing.T) {
	// An AND over a scattered subset of a larger variable space must still
	// hit the fast path after support normalization.
	f := logic.Const(10, true)
	for _, v := range []int{1, 3, 4, 6, 7, 8, 9} {
		f.And(f, logic.Var(10, v))
	}
	tr, ok, _ := DecomposeEffort(f, 3, 2, nil, Effort{})
	if !ok {
		t.Fatal("embedded AND not decomposed")
	}
	if !tr.TT().Equal(f) {
		t.Fatal("function changed")
	}
}
