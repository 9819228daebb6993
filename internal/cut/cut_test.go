package cut

import (
	"math/rand"
	"testing"

	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// andTree: x1..x4 -> g1=AND(x1,x2), g2=AND(x3,x4), g3=AND(g1,g2),
// with labels l(PI)=0, l(g*)=1.
func andTreeExpansion(t *testing.T, lowDepth int) (*expand.Expanded, *netlist.Circuit, map[string]int) {
	t.Helper()
	c := netlist.NewCircuit("tree")
	ids := map[string]int{}
	for _, n := range []string{"x1", "x2", "x3", "x4"} {
		ids[n] = c.AddPI(n)
	}
	ids["g1"] = c.AddGate("g1", logic.AndAll(2),
		netlist.Fanin{From: ids["x1"]}, netlist.Fanin{From: ids["x2"]})
	ids["g2"] = c.AddGate("g2", logic.AndAll(2),
		netlist.Fanin{From: ids["x3"]}, netlist.Fanin{From: ids["x4"]})
	ids["g3"] = c.AddGate("g3", logic.AndAll(2),
		netlist.Fanin{From: ids["g1"]}, netlist.Fanin{From: ids["g2"]})
	c.AddPO("z", ids["g3"], 0)
	labels := make([]int, c.NumNodes())
	labels[ids["g1"]], labels[ids["g2"]], labels[ids["g3"]] = 1, 1, 1
	x, ok := (&expand.Builder{}).Build(c, ids["g3"], labels, 1, 1, expand.Options{LowDepth: lowDepth})
	if !ok {
		t.Fatal("expansion failed")
	}
	return x, c, ids
}

func TestKCutTree(t *testing.T) {
	x, _, ids := andTreeExpansion(t, 100)
	if _, ok := (&Arena{}).KCut(x, 2); ok {
		t.Fatal("2-cut should not exist (4 PIs below mandatory region)")
	}
	res, ok := (&Arena{}).KCut(x, 4)
	if !ok {
		t.Fatal("4-cut must exist")
	}
	if len(res.Cut) != 4 {
		t.Fatalf("cut size = %d, want 4", len(res.Cut))
	}
	wantCone := map[int]bool{ids["g3"]: true, ids["g1"]: true, ids["g2"]: true}
	if len(res.Cone) != 3 {
		t.Fatalf("cone size = %d, want 3", len(res.Cone))
	}
	for _, i := range res.Cone {
		if !wantCone[x.Nodes[i].Orig] {
			t.Errorf("unexpected cone member %v", x.Nodes[i])
		}
	}
	if res.Cone[0] != expand.Root {
		t.Error("cone must start at the root")
	}
	checkConeParents(t, x, res)
}

func TestKCutInfeasibleThroughNonCandidatePI(t *testing.T) {
	// Self loop with labels forcing the PI replica to be non-candidate:
	// no cut of the required height exists for any K.
	c := netlist.NewCircuit("loop")
	pi := c.AddPI("x")
	g := c.AddGate("g", logic.XorAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	c.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", g, 0)
	labels := make([]int, c.NumNodes())
	labels[g] = 1
	x, ok := (&expand.Builder{}).Build(c, g, labels, 1, 0, expand.Options{LowDepth: 0})
	if !ok {
		t.Fatal("expansion failed")
	}
	if _, ok := (&Arena{}).KCut(x, 100); ok {
		t.Fatal("cut through a non-candidate PI replica must not exist")
	}
}

func TestKCutSelfLoopAtHeight1(t *testing.T) {
	c := netlist.NewCircuit("loop")
	pi := c.AddPI("x")
	g := c.AddGate("g", logic.XorAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	c.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", g, 0)
	labels := make([]int, c.NumNodes())
	labels[g] = 1
	x, ok := (&expand.Builder{}).Build(c, g, labels, 1, 1, expand.Options{LowDepth: 0})
	if !ok {
		t.Fatal("expansion failed")
	}
	res, ok := (&Arena{}).KCut(x, 2)
	if !ok {
		t.Fatal("the classic {(pi,0),(g,1)} cut must exist")
	}
	if len(res.Cut) != 2 {
		t.Fatalf("cut = %v", res.Cut)
	}
	seen := map[[2]int]bool{}
	for _, i := range res.Cut {
		seen[[2]int{x.Nodes[i].Orig, x.Nodes[i].W}] = true
	}
	if !seen[[2]int{pi, 0}] || !seen[[2]int{g, 1}] {
		t.Fatalf("unexpected cut replicas: %v", seen)
	}
}

func TestLowDepthFindsReconvergentSmallerCut(t *testing.T) {
	// d(PI) -> c1, c2 -> a, b -> root. Labels make a,b mandatory and
	// c1,c2,d candidates. Stopping at the first candidates yields cut
	// {c1,c2}; expanding one more level yields the 1-cut {d}.
	c := netlist.NewCircuit("reconv")
	d := c.AddPI("d")
	c1 := c.AddGate("c1", logic.Buf(), netlist.Fanin{From: d})
	c2 := c.AddGate("c2", logic.Buf(), netlist.Fanin{From: d})
	a := c.AddGate("a", logic.Buf(), netlist.Fanin{From: c1})
	b := c.AddGate("b", logic.Buf(), netlist.Fanin{From: c2})
	root := c.AddGate("root", logic.AndAll(2),
		netlist.Fanin{From: a}, netlist.Fanin{From: b})
	c.AddPO("z", root, 0)
	labels := make([]int, c.NumNodes())
	labels[a], labels[b] = 1, 1
	labels[root] = 1
	// L=1: a,b eff 2 (mandatory); c1,c2,d eff 1 (candidates).
	x0, ok := (&expand.Builder{}).Build(c, root, labels, 1, 1, expand.Options{LowDepth: 0})
	if !ok {
		t.Fatal("expansion failed")
	}
	if _, ok := (&Arena{}).KCut(x0, 1); ok {
		t.Fatal("LowDepth=0 cannot see the reconvergent 1-cut")
	}
	res0, ok := (&Arena{}).KCut(x0, 2)
	if !ok || len(res0.Cut) != 2 {
		t.Fatal("LowDepth=0 should find the frontier 2-cut")
	}
	x1, ok := (&expand.Builder{}).Build(c, root, labels, 1, 1, expand.Options{LowDepth: 1})
	if !ok {
		t.Fatal("expansion failed")
	}
	res1, ok := (&Arena{}).KCut(x1, 1)
	if !ok || len(res1.Cut) != 1 {
		t.Fatalf("LowDepth=1 must find the 1-cut, got %v ok=%v", res1, ok)
	}
	if x1.Nodes[res1.Cut[0]].Orig != d {
		t.Error("the 1-cut should be at the shared PI")
	}
	// Cone now contains c1 and c2 as interior (expanded candidate) nodes.
	if len(res1.Cone) != 5 {
		t.Fatalf("cone size = %d, want 5 (root,a,b,c1,c2)", len(res1.Cone))
	}
}

// TestConeClosureRandom: on random expansions, every fanin of a cone
// interior replica must itself be in the cone or in the cut (otherwise the
// materialized LUT would miss an input), and the cut size must equal the
// max-flow value implied by feasibility at that k.
func TestConeClosureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 40; trial++ {
		c := netlist.NewCircuit("cc")
		pi := c.AddPI("x")
		ids := []int{pi}
		var gates []int
		n := 6 + rng.Intn(20)
		for i := 0; i < n; i++ {
			nf := 1 + rng.Intn(2)
			fanins := make([]netlist.Fanin, nf)
			for j := range fanins {
				fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
			}
			fn := logic.Buf()
			if nf == 2 {
				fn = logic.AndAll(2)
			}
			id := c.AddGate("", fn, fanins...)
			ids = append(ids, id)
			gates = append(gates, id)
		}
		for i := 0; i < n/4 && len(gates) > 1; i++ {
			g := gates[rng.Intn(len(gates))]
			nd := c.Nodes[g]
			nd.Fanins[rng.Intn(len(nd.Fanins))] = netlist.Fanin{
				From: gates[rng.Intn(len(gates))], Weight: 1,
			}
		}
		c.InvalidateCaches()
		c.AddPO("z", gates[len(gates)-1], 0)
		if c.Check() != nil {
			continue
		}
		labels := make([]int, c.NumNodes())
		for _, nd := range c.Nodes {
			if nd.Kind == netlist.Gate {
				labels[nd.ID] = 1 + rng.Intn(3)
			}
		}
		v := gates[rng.Intn(len(gates))]
		L := rng.Intn(4)
		x, ok := (&expand.Builder{}).Build(c, v, labels, 1+rng.Intn(2), L, expand.Options{LowDepth: rng.Intn(4)})
		if !ok {
			continue
		}
		k := 2 + rng.Intn(5)
		res, ok := (&Arena{}).KCut(x, k)
		if !ok {
			continue
		}
		if len(res.Cut) > k {
			t.Fatalf("trial %d: cut size %d > k %d", trial, len(res.Cut), k)
		}
		inCone := map[int]bool{}
		for _, i := range res.Cone {
			inCone[i] = true
		}
		inCut := map[int]bool{}
		for _, i := range res.Cut {
			inCut[i] = true
		}
		for _, i := range res.Cone {
			if x.Nodes[i].Frontier && i != expand.Root {
				t.Fatalf("trial %d: frontier replica inside the cone", trial)
			}
			for _, ch := range x.Fanins[i] {
				if !inCone[ch] && !inCut[ch] {
					t.Fatalf("trial %d: cone replica %d has dangling fanin %d", trial, i, ch)
				}
			}
		}
		// Every cut replica must be a candidate at the height bound.
		for _, i := range res.Cut {
			if !x.Nodes[i].Candidate {
				t.Fatalf("trial %d: non-candidate in cut", trial)
			}
		}
	}
}
