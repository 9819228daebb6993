package mapper

import (
	"math/rand"
	"testing"

	"turbosyn/internal/core"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// andTree32 builds a balanced 2-input AND tree over 32 inputs (depth 5).
func andTree32(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("tree32")
	var level []int
	for i := 0; i < 32; i++ {
		level = append(level, c.AddPI(string(rune('A'+i))))
	}
	for len(level) > 1 {
		var next []int
		for i := 0; i < len(level); i += 2 {
			next = append(next, c.AddGate("", logic.AndAll(2),
				netlist.Fanin{From: level[i]}, netlist.Fanin{From: level[i+1]}))
		}
		level = next
	}
	c.AddPO("z", level[0], 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// mapComb maps a combinational circuit on the label engine with the exact
// combinational options: FlowMap (Cong–Ding) without decomposition, FlowSYN
// with it. The result's Phi is the LUT depth.
func mapComb(c *netlist.Circuit, k int, decompose bool) (*core.Result, error) {
	opts := combOptions(k)
	opts.Decompose = decompose
	return core.Minimize(c, opts)
}

func TestFlowMapDepthOptimal(t *testing.T) {
	c := andTree32(t)
	res, err := mapComb(c, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	// 32 inputs, 4-LUTs absorb 2 tree levels: depth ceil(5/2) = 3.
	if res.Phi != 3 {
		t.Fatalf("FlowMap depth = %d, want 3", res.Phi)
	}
	rng := rand.New(rand.NewSource(7))
	vecs := sim.RandomVectors(rng, 4000, 32)
	if err := sim.Compare(c, res.Mapped, vecs, 0, 0); err != nil {
		t.Fatalf("FlowMap result not equivalent: %v", err)
	}
}

func TestFlowSYNBeatsFlowMapOnSkewedChain(t *testing.T) {
	// A maximally skewed 15-input AND chain: FlowMap at K=4 is limited by
	// structure; FlowSYN rebalances via decomposition. (15 and not 16
	// inputs: resynthesis cuts are capped at Cmax = 15, as in the paper.)
	c := netlist.NewCircuit("chain15")
	prev := c.AddPI("p0")
	g := -1
	for i := 1; i < 15; i++ {
		pi := c.AddPI(string(rune('a' + i)))
		if g == -1 {
			g = c.AddGate("", logic.AndAll(2),
				netlist.Fanin{From: prev}, netlist.Fanin{From: pi})
		} else {
			g = c.AddGate("", logic.AndAll(2),
				netlist.Fanin{From: g}, netlist.Fanin{From: pi})
		}
	}
	c.AddPO("z", g, 0)
	fm, err := mapComb(c, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := mapComb(c, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Phi > fm.Phi {
		t.Fatalf("FlowSYN (%d) worse than FlowMap (%d)", fs.Phi, fm.Phi)
	}
	// A 15-input AND at K=4 decomposes into a perfect depth-2 tree;
	// FlowMap on the skewed chain needs more.
	if fs.Phi != 2 {
		t.Errorf("FlowSYN depth = %d, want 2", fs.Phi)
	}
	if fm.Phi < 3 {
		t.Errorf("FlowMap depth = %d; chain should not allow 2", fm.Phi)
	}
	eq, err := sim.CombEquivalent(c, fs.Mapped, 16)
	if err != nil || !eq {
		t.Fatalf("FlowSYN result not equivalent (%v, %v)", eq, err)
	}
}

// mealyish builds a small sequential machine with two registered loops and
// combinational logic between them.
func mealyish(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("mealyish")
	a := c.AddPI("a")
	b := c.AddPI("b")
	s1 := c.AddGate("s1", logic.XorAll(2),
		netlist.Fanin{From: a}, netlist.Fanin{From: a}) // placeholder
	t1 := c.AddGate("t1", logic.AndAll(2),
		netlist.Fanin{From: s1}, netlist.Fanin{From: b})
	t2 := c.AddGate("t2", logic.OrAll(2),
		netlist.Fanin{From: t1}, netlist.Fanin{From: a})
	s2 := c.AddGate("s2", logic.XorAll(2),
		netlist.Fanin{From: t2}, netlist.Fanin{From: a}) // placeholder slot 1
	c.Nodes[s1].Fanins[1] = netlist.Fanin{From: s2, Weight: 1}
	c.Nodes[s2].Fanins[1] = netlist.Fanin{From: s2, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("q", s2, 0)
	c.AddPO("r", t1, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestFlowSYNSBaseline(t *testing.T) {
	c := mealyish(t)
	res, err := FlowSYNS(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapped.Check(); err != nil {
		t.Fatal(err)
	}
	if !res.Mapped.IsKBounded(5) {
		t.Fatal("not K-bounded")
	}
	if res.Mapped.NumFFs() == 0 {
		t.Fatal("registers lost in merge")
	}
	if res.Phi < 1 {
		t.Fatalf("phi = %d", res.Phi)
	}
	rng := rand.New(rand.NewSource(3))
	vecs := sim.RandomVectors(rng, 200, 2)
	if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 6); err != nil {
		t.Fatalf("FlowSYN-s merged network diverges: %v", err)
	}
}

func TestFlowSYNSNeverBeatsTurboSYN(t *testing.T) {
	c := mealyish(t)
	fsns, err := FlowSYNS(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	ts, err := core.Minimize(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ts.Phi > fsns.Phi {
		t.Fatalf("TurboSYN (%d) worse than FlowSYN-s (%d)", ts.Phi, fsns.Phi)
	}
}

func TestPackReducesLUTs(t *testing.T) {
	// Chain of 1-input LUTs (buffers) into a final AND: packing must
	// collapse the chain.
	c := netlist.NewCircuit("bufchain")
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate("b1", logic.Buf(), netlist.Fanin{From: a})
	g = c.AddGate("b2", logic.Inv(), netlist.Fanin{From: g})
	g = c.AddGate("b3", logic.Buf(), netlist.Fanin{From: g})
	and := c.AddGate("and", logic.AndAll(2),
		netlist.Fanin{From: g}, netlist.Fanin{From: b})
	c.AddPO("z", and, 0)
	packed, _, err := Pack(c, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if packed.NumGates() != 1 {
		t.Fatalf("packed to %d LUTs, want 1", packed.NumGates())
	}
	eq, err := sim.CombEquivalent(c, packed, 4)
	if err != nil || !eq {
		t.Fatalf("packing changed function (%v %v)", eq, err)
	}
}

func TestPackDedupes(t *testing.T) {
	c := netlist.NewCircuit("dup")
	a := c.AddPI("a")
	b := c.AddPI("b")
	g1 := c.AddGate("g1", logic.AndAll(2), netlist.Fanin{From: a}, netlist.Fanin{From: b})
	g2 := c.AddGate("g2", logic.AndAll(2), netlist.Fanin{From: a}, netlist.Fanin{From: b})
	o := c.AddGate("o", logic.XorAll(2), netlist.Fanin{From: g1}, netlist.Fanin{From: g2})
	c.AddPO("z", o, 0)
	packed, _, err := Pack(c, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// XOR(x,x) == 0; after dedupe the xor LUT sees one input twice. The
	// result must stay correct (constant false).
	eq, err := sim.CombEquivalent(c, packed, 4)
	if err != nil || !eq {
		t.Fatalf("dedupe broke function (%v %v)", eq, err)
	}
	if packed.NumGates() > 2 {
		t.Fatalf("dedupe failed: %d gates", packed.NumGates())
	}
}

func TestPackPreservesRegistersAndTiming(t *testing.T) {
	c := mealyish(t)
	res, err := core.Minimize(c, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	packed, origOf, err := Pack(res.Mapped, 5, res.OrigOf)
	if err != nil {
		t.Fatal(err)
	}
	if packed.NumGates() > res.Mapped.NumGates() {
		t.Fatal("packing increased LUT count")
	}
	if got := retime.MaxCycleRatioCeil(packed); got > res.Phi {
		t.Fatalf("packing broke the ratio: %d > %d", got, res.Phi)
	}
	if _, ok := retime.RetimeForPeriod(packed, res.Phi, true); !ok {
		t.Fatal("packed network cannot realize phi")
	}
	rng := rand.New(rand.NewSource(5))
	vecs := sim.RandomVectors(rng, 200, 2)
	if err := sim.CompareAligned(c, packed, origOf, vecs, 6); err != nil {
		t.Fatalf("packed network diverges: %v", err)
	}
}
