package decomp

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
)

// checkTree validates a Decompose result against the function, fanin and
// depth contracts.
func checkTree(t *testing.T, f *logic.TT, tree *Tree, k, depthBudget int) {
	t.Helper()
	if tree.MaxFanin() > k {
		t.Fatalf("fanin %d > k=%d", tree.MaxFanin(), k)
	}
	if d := tree.Depth(); d > depthBudget {
		t.Fatalf("depth %d > budget %d", d, depthBudget)
	}
	if !tree.TT().Equal(f) {
		t.Fatal("tree does not compute f")
	}
}

// TestDisjointPeelTier: a literal AND-factored function peels without any
// Roth-Karp extraction.
func TestDisjointPeelTier(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	// f = x5 AND NOT x6 AND core(x0..x4): the 5-var core is random, so the
	// associative fast path cannot take it, but both literals peel.
	core := randomTT(rng, 7)
	for i := 0; i < core.NumBits(); i++ {
		core.SetBit(i, core.Bit(i&0x1F))
	}
	f := logic.NewTT(7).And(core, logic.Var(7, 5))
	f.And(f, logic.NewTT(7).Not(logic.Var(7, 6)))
	var st EffortStats
	tree, ok, degraded := DecomposeEffort(f, 5, 3, nil, Effort{Stats: &st})
	if !ok || degraded {
		t.Fatalf("ok=%v degraded=%v", ok, degraded)
	}
	checkTree(t, f, tree, 5, 3)
	if st.DisjointPeels == 0 {
		t.Fatalf("disjoint peel tier never fired: %+v", st)
	}
	if st.RothKarpCalls != 0 {
		t.Fatalf("peelable function still ran %d Roth-Karp extractions", st.RothKarpCalls)
	}
}

// TestDisjointPeelXor: an XOR-peeled literal keeps the residual intact.
func TestDisjointPeelXor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		core := randomTT(rng, 6)
		f := expand(core, 7, []int{0, 1, 2, 3, 4, 5})
		f.Xor(f, logic.Var(7, 6))
		var st EffortStats
		tree, ok, _ := DecomposeEffort(f, 6, 3, nil, Effort{Stats: &st})
		if !ok {
			t.Fatal("xor-peelable function did not decompose")
		}
		checkTree(t, f, tree, 6, 3)
	}
}

// TestShannonTier: a mux of two dense halves splits on the select variable
// without Roth-Karp.
func TestShannonTier(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for iter := 0; iter < 10; iter++ {
		g0 := expand(randomTT(rng, 4), 9, []int{0, 1, 2, 3})
		g1 := expand(randomTT(rng, 4), 9, []int{4, 5, 6, 7})
		s := logic.Var(9, 8)
		ns := logic.NewTT(9).Not(s)
		f := logic.NewTT(9).Or(logic.NewTT(9).And(ns, g0), logic.NewTT(9).And(s, g1))
		if len(f.Support()) != 9 {
			continue // a degenerate random half would dodge the tier
		}
		var st EffortStats
		tree, ok, degraded := DecomposeEffort(f, 4, 2, nil, Effort{Stats: &st})
		if !ok || degraded {
			t.Fatalf("ok=%v degraded=%v", ok, degraded)
		}
		checkTree(t, f, tree, 4, 2)
		if st.ShannonSplits == 0 {
			t.Fatalf("shannon tier never fired: %+v", st)
		}
		if st.RothKarpCalls != 0 {
			t.Fatalf("mux still ran %d Roth-Karp extractions", st.RothKarpCalls)
		}
	}
}

// TestTiersPreserveRandomDecompose: with the fast tiers in the path, random
// functions still decompose to valid trees (and failures stay failures of
// the whole search, not tier artifacts).
func TestTiersPreserveRandomDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for iter := 0; iter < 60; iter++ {
		n := 5 + rng.Intn(4)
		f := randomTT(rng, n)
		k := 3 + rng.Intn(3)
		budget := 2 + rng.Intn(3)
		var st EffortStats
		tree, ok, _ := DecomposeEffort(f, k, budget, nil, Effort{Stats: &st})
		if !ok {
			continue
		}
		checkTree(t, f, tree, k, budget)
	}
}

// TestApplyNPNToTree: mapping a tree through a transform yields the
// transformed function, leaves the source tree untouched, and the identity
// transform is a no-op returning the same tree.
func TestApplyNPNToTree(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for iter := 0; iter < 60; iter++ {
		n := 4 + rng.Intn(4)
		f := randomTT(rng, n)
		tree, ok, _ := DecomposeEffort(f, 4, 4, nil, Effort{})
		if !ok {
			continue
		}
		before := make([]*logic.TT, len(tree.Nodes))
		for i, nd := range tree.Nodes {
			before[i] = nd.Func.Clone()
		}
		tr := logic.NPNTransform{
			Perm:      rng.Perm(n),
			InputNeg:  uint32(rng.Intn(1 << uint(n))),
			OutputNeg: rng.Intn(2) == 1,
		}
		mapped := ApplyNPNToTree(tree, tr)
		if got, want := mapped.TT(), tr.Apply(f); !got.Equal(want) {
			t.Fatalf("n=%d iter=%d: mapped tree computes the wrong function", n, iter)
		}
		if mapped.Depth() != tree.Depth() || mapped.MaxFanin() != tree.MaxFanin() {
			t.Fatal("transform changed the tree shape")
		}
		for i, nd := range tree.Nodes {
			if !nd.Func.Equal(before[i]) {
				t.Fatal("ApplyNPNToTree mutated the source tree")
			}
		}
		ident := logic.NPNTransform{Perm: identityPerm(n)}
		if ApplyNPNToTree(tree, ident) != tree {
			t.Fatal("identity transform did not return the tree unchanged")
		}
	}
}

func identityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}

// TestNPNRoundTripThroughDecompose: decomposing the canonical form and
// mapping back through the inverse transform recovers a tree for f — the
// exact flow the core cache runs.
func TestNPNRoundTripThroughDecompose(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 40; iter++ {
		n := 5 + rng.Intn(3)
		f := randomTT(rng, n)
		canon, tr := logic.NPNCanon(f)
		tree, ok, _ := DecomposeEffort(canon, 4, 4, nil, Effort{})
		if !ok {
			continue
		}
		back := ApplyNPNToTree(tree, tr.Inverse())
		if !back.TT().Equal(f) {
			t.Fatalf("n=%d iter=%d: canonical round-trip lost the function", n, iter)
		}
	}
}
