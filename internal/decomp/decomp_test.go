package decomp

import (
	"math/rand"
	"testing"
	"testing/quick"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/sim"
)

func randomTT(rng *rand.Rand, nvar int) *logic.TT {
	t := logic.NewTT(nvar)
	for i := 0; i < t.NumBits(); i++ {
		if rng.Intn(2) == 1 {
			t.SetBit(i, true)
		}
	}
	return t
}

func TestColumnMultiplicity(t *testing.T) {
	// Each case has mu = 2, so RothKarp must encode its bound set in one
	// code bit.
	oneCodeBit := func(f *logic.TT, bound []int) {
		t.Helper()
		if rk, ok := RothKarp(f, bound, 0); !ok || len(rk.Alphas) != 1 {
			t.Fatalf("bound %v: RothKarp ok=%v, want one alpha", bound, ok)
		}
	}
	// f = (x0 XOR x1) AND x2, bound {x0,x1}: subfunctions {0, x2} -> mu=2.
	f := logic.NewTT(3).And(logic.NewTT(3).Xor(logic.Var(3, 0), logic.Var(3, 1)), logic.Var(3, 2))
	if mu := referenceColumnCount(f, []int{0, 1}); mu != 2 {
		t.Fatalf("mu = %d, want 2", mu)
	}
	oneCodeBit(f, []int{0, 1})
	// Parity: every bound set of a XOR has mu = 2.
	if mu := referenceColumnCount(logic.XorAll(6), []int{1, 3, 5}); mu != 2 {
		t.Fatalf("xor mu = %d, want 2", mu)
	}
	oneCodeBit(logic.XorAll(6), []int{1, 3, 5})
	// AND over bound set {x0,x1}: subfunctions {0, x2&x3} -> mu=2.
	if mu := referenceColumnCount(logic.AndAll(4), []int{0, 1}); mu != 2 {
		t.Fatalf("and mu = %d, want 2", mu)
	}
	oneCodeBit(logic.AndAll(4), []int{0, 1})
}

func TestRothKarpXor(t *testing.T) {
	f := logic.XorAll(6)
	rk, ok := RothKarp(f, []int{0, 1, 2}, 0)
	if !ok {
		t.Fatal("decomposition failed")
	}
	if len(rk.Alphas) != 1 {
		t.Fatalf("xor should need 1 code bit, got %d", len(rk.Alphas))
	}
	if !rk.Verify(f) {
		t.Fatal("recomposition mismatch")
	}
}

func TestRothKarpRandomQuick(t *testing.T) {
	f := func(seed int64, nvarRaw, kRaw uint8) bool {
		nvar := 3 + int(nvarRaw)%6 // 3..8
		k := 1 + int(kRaw)%(nvar-1)
		rng := rand.New(rand.NewSource(seed))
		tt := randomTT(rng, nvar)
		bound := rng.Perm(nvar)[:k]
		rk, ok := RothKarp(tt, bound, 0)
		if !ok {
			t.Logf("seed %d: unlimited code bits cannot fail", seed)
			return false
		}
		if !rk.Verify(tt) {
			t.Logf("seed %d: verify failed (nvar=%d bound=%v)", seed, nvar, bound)
			return false
		}
		// Multiplicity consistency with the bit-serial column count.
		mu := referenceColumnCount(tt, bound)
		maxCodes := 1 << uint(len(rk.Alphas))
		if mu > maxCodes || (len(rk.Alphas) > 1 && mu <= maxCodes/2) {
			t.Logf("seed %d: mu=%d does not fit %d alphas", seed, mu, len(rk.Alphas))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestRothKarpCodeLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	f := randomTT(rng, 8) // random 8-var functions have high multiplicity
	if _, ok := RothKarp(f, []int{0, 1, 2, 3}, 1); ok {
		t.Fatal("1 code bit should not suffice for a random function")
	}
}

func TestDecomposeWideAnd(t *testing.T) {
	// 9-input AND with K=3: depth 2 tree (3 ANDs + root).
	f := logic.AndAll(9)
	tr, ok, _ := DecomposeEffort(f, 3, 2, nil, Effort{})
	if !ok {
		t.Fatal("decomposition failed")
	}
	if tr.MaxFanin() > 3 {
		t.Fatalf("fanin bound violated: %d", tr.MaxFanin())
	}
	if tr.Depth() > 2 {
		t.Fatalf("depth = %d, want <= 2", tr.Depth())
	}
	if !tr.TT().Equal(f) {
		t.Fatal("tree function mismatch")
	}
	if _, ok, _ := DecomposeEffort(f, 3, 1, nil, Effort{}); ok {
		t.Fatal("depth 1 must be impossible for 9 inputs at K=3")
	}
}

func TestDecomposeXorDepth(t *testing.T) {
	f := logic.XorAll(8)
	tr, ok, _ := DecomposeEffort(f, 4, 2, nil, Effort{})
	if !ok {
		t.Fatal("8-input XOR at K=4 should fit depth 2")
	}
	if tr.Depth() > 2 || tr.MaxFanin() > 4 {
		t.Fatalf("depth %d fanin %d", tr.Depth(), tr.MaxFanin())
	}
	if !tr.TT().Equal(f) {
		t.Fatal("function changed")
	}
}

func TestDecomposeRandomQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nvar := 5 + rng.Intn(4) // 5..8
		k := 4 + rng.Intn(2)    // 4..5
		tt := randomTT(rng, nvar)
		tr, ok, _ := DecomposeEffort(tt, k, 4, rng.Perm(nvar), Effort{})
		if !ok {
			return true // not every function decomposes in budget; fine
		}
		if tr.MaxFanin() > k {
			t.Logf("seed %d: fanin %d > %d", seed, tr.MaxFanin(), k)
			return false
		}
		if tr.Depth() > 4 {
			t.Logf("seed %d: depth %d", seed, tr.Depth())
			return false
		}
		if !tr.TT().Equal(tt) {
			t.Logf("seed %d: function mismatch", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecomposeConstant(t *testing.T) {
	tr, ok, _ := DecomposeEffort(logic.Const(4, true), 3, 1, nil, Effort{})
	if !ok {
		t.Fatal("constant must decompose")
	}
	if c, v := tr.TT().IsConst(); !c || !v {
		t.Fatal("constant tree wrong")
	}
}

// wideGateCircuit: one 9-input AND gate plus a registered feedback path.
func wideGateCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("wide")
	var fanins []netlist.Fanin
	for i := 0; i < 8; i++ {
		fanins = append(fanins, netlist.Fanin{From: c.AddPI(string(rune('a' + i)))})
	}
	g := c.AddGate("wide", logic.AndAll(9), append(fanins, netlist.Fanin{From: 0})...)
	c.Nodes[g].Fanins[8] = netlist.Fanin{From: g, Weight: 1} // feedback
	c.InvalidateCaches()
	c.AddPO("z", g, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestKBoundWideGate(t *testing.T) {
	c := wideGateCircuit(t)
	d, err := KBound(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsKBounded(4) {
		t.Fatalf("max fanin still %d", d.MaxFanin())
	}
	if d.NumFFs() != c.NumFFs() {
		t.Fatalf("FF count changed: %d -> %d", c.NumFFs(), d.NumFFs())
	}
	rng := rand.New(rand.NewSource(4))
	vecs := sim.RandomVectors(rng, 200, len(c.PIs))
	if err := sim.Compare(c, d, vecs, 0, 0); err != nil {
		t.Fatalf("behaviour changed: %v", err)
	}
}

func TestKBoundParityGate(t *testing.T) {
	c := netlist.NewCircuit("par")
	var fanins []netlist.Fanin
	for i := 0; i < 10; i++ {
		fanins = append(fanins, netlist.Fanin{From: c.AddPI(string(rune('a' + i)))})
	}
	g := c.AddGate("x", logic.XorAll(10), fanins...)
	c.AddPO("z", g, 0)
	d, err := KBound(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsKBounded(4) {
		t.Fatal("not bounded")
	}
	// A 10-input XOR via ISOP would need 512 cubes; the parity path keeps
	// it near log size.
	if d.NumGates() > 8 {
		t.Fatalf("parity tree too large: %d gates", d.NumGates())
	}
	eq, err := sim.CombEquivalent(c, d, 10)
	if err != nil || !eq {
		t.Fatalf("equivalence: %v %v", eq, err)
	}
}

func TestKBoundRandomSOPGate(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := netlist.NewCircuit("sop")
	var fanins []netlist.Fanin
	for i := 0; i < 7; i++ {
		fanins = append(fanins, netlist.Fanin{From: c.AddPI(string(rune('a' + i)))})
	}
	g := c.AddGate("sopgate", randomTT(rng, 7), fanins...)
	c.AddPO("z", g, 0)
	d, err := KBound(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsKBounded(5) {
		t.Fatal("not bounded")
	}
	eq, err := sim.CombEquivalent(c, d, 10)
	if err != nil || !eq {
		t.Fatalf("equivalence: %v %v", eq, err)
	}
}

func TestKBoundLeavesNarrowCircuitsAlone(t *testing.T) {
	c := wideGateCircuit(t)
	d, err := KBound(c, 9)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumGates() != c.NumGates() {
		t.Fatalf("gates changed %d -> %d without need", c.NumGates(), d.NumGates())
	}
	if _, err := KBound(c, 1); err == nil {
		t.Fatal("k < 2 must be rejected")
	}
}

// TestKBoundConstantGate: a 7-input gate computing a constant is K-bounded
// through its ISOP cover (a constant gate), not the parity path, which has
// no support to reduce over.
func TestKBoundConstantGate(t *testing.T) {
	for _, v := range []bool{false, true} {
		c := netlist.NewCircuit("const")
		var fanins []netlist.Fanin
		for i := 0; i < 7; i++ {
			fanins = append(fanins, netlist.Fanin{From: c.AddPI(string(rune('a' + i)))})
		}
		g := c.AddGate("n", logic.Const(7, v), fanins...)
		c.AddPO("z", g, 0)
		d, err := KBound(c, 5)
		if err != nil {
			t.Fatalf("const %v: %v", v, err)
		}
		if err := d.Check(); err != nil {
			t.Fatalf("const %v: %v", v, err)
		}
		if !d.IsKBounded(5) {
			t.Fatalf("const %v: max fanin %d", v, d.MaxFanin())
		}
		eq, err := sim.CombEquivalent(c, d, 10)
		if err != nil || !eq {
			t.Fatalf("const %v: equivalence: %v %v", v, eq, err)
		}
	}
}
