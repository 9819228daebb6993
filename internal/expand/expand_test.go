package expand

import (
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// andTree: x1..x4 -> g1=AND(x1,x2), g2=AND(x3,x4), g3=AND(g1,g2).
func andTree(t *testing.T) (*netlist.Circuit, map[string]int) {
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
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c, ids
}

func TestBuildCombinationalCone(t *testing.T) {
	c, ids := andTree(t)
	labels := make([]int, c.NumNodes())
	labels[ids["g1"]] = 1
	labels[ids["g2"]] = 1
	labels[ids["g3"]] = 1
	// L = 1: g1,g2 have eff 2 > 1 (mandatory); PIs have eff 1 (candidates).
	x, ok := (&Builder{}).Build(c, ids["g3"], labels, 1, 1, Options{LowDepth: 100})
	if !ok {
		t.Fatal("build failed")
	}
	if len(x.Nodes) != 7 { // g3, g1, g2, x1..x4
		t.Fatalf("expanded %d nodes, want 7", len(x.Nodes))
	}
	for _, name := range []string{"g1", "g2"} {
		id := x.Index(ids[name], 0)
		if id < 0 || x.Nodes[id].Candidate {
			t.Errorf("%s should be a mandatory replica", name)
		}
	}
	for _, name := range []string{"x1", "x2", "x3", "x4"} {
		id := x.Index(ids[name], 0)
		if id < 0 || !x.Nodes[id].Candidate || !x.Nodes[id].Frontier {
			t.Errorf("%s should be a candidate frontier replica", name)
		}
	}
	if x.Index(ids["g3"], 0) != Root {
		t.Error("root must be (v, 0)")
	}
}

// selfLoop: pi -> g (XOR), g -> g with one register.
func selfLoop(t *testing.T) (*netlist.Circuit, int, int) {
	t.Helper()
	c := netlist.NewCircuit("loop")
	pi := c.AddPI("x")
	g := c.AddGate("g", logic.XorAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	c.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", g, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c, pi, g
}

func TestBuildSequentialReplicas(t *testing.T) {
	c, pi, g := selfLoop(t)
	labels := make([]int, c.NumNodes())
	labels[g] = 1
	// phi=1, L=1: (pi,0) eff 1, (g,1) eff 1: both candidates.
	x, ok := (&Builder{}).Build(c, g, labels, 1, 1, Options{})
	if !ok {
		t.Fatal("build failed")
	}
	if id := x.Index(pi, 0); id < 0 || !x.Nodes[id].Candidate {
		t.Error("(pi,0) should be a candidate")
	}
	if id := x.Index(g, 1); id < 0 || !x.Nodes[id].Candidate {
		t.Error("(g,1) should be a candidate replica distinct from the root")
	}
	if x.Index(g, 0) != Root {
		t.Error("root missing")
	}

	// phi=1, L=0: (pi,0) eff 1 > 0 is a non-candidate frontier; the deeper
	// replicas (pi,1), (g,2) become candidates at eff 0.
	x, ok = (&Builder{}).Build(c, g, labels, 1, 0, Options{LowDepth: 0})
	if !ok {
		t.Fatal("build failed")
	}
	if id := x.Index(pi, 0); id < 0 || x.Nodes[id].Candidate {
		t.Error("(pi,0) must not be a candidate at L=0")
	}
	if id := x.Index(g, 1); id < 0 || x.Nodes[id].Candidate {
		t.Error("(g,1) eff=1 must not be a candidate at L=0")
	}
	if id := x.Index(pi, 1); id < 0 || !x.Nodes[id].Candidate {
		t.Error("(pi,1) should be a candidate at L=0")
	}
}

func TestBuildTerminatesAroundLoops(t *testing.T) {
	c, _, g := selfLoop(t)
	labels := make([]int, c.NumNodes())
	labels[g] = 5
	// Mandatory region grows until w makes eff drop to L; must stay finite.
	x, ok := (&Builder{}).Build(c, g, labels, 1, 0, Options{LowDepth: 2})
	if !ok {
		t.Fatal("build failed")
	}
	if len(x.Nodes) > 30 {
		t.Fatalf("expansion unexpectedly large: %d", len(x.Nodes))
	}
	// Replicas (g,1)..(g,5) have eff 5-w+1 > 0: mandatory.
	for w := 1; w <= 5; w++ {
		id := x.Index(g, w)
		if id < 0 {
			t.Fatalf("(g,%d) missing", w)
		}
		if x.Nodes[id].Candidate {
			t.Errorf("(g,%d) should be mandatory", w)
		}
	}
	if id := x.Index(g, 6); id < 0 || !x.Nodes[id].Candidate {
		t.Error("(g,6) should be the first candidate replica")
	}
}

func TestBuildRespectsMaxNodes(t *testing.T) {
	c, _, g := selfLoop(t)
	labels := make([]int, c.NumNodes())
	labels[g] = 1000
	if _, ok := (&Builder{}).Build(c, g, labels, 1, 0, Options{MaxNodes: 50}); ok {
		t.Fatal("node cap not enforced")
	}
}

func TestLowDepthControlsCandidateExpansion(t *testing.T) {
	c, pi, g := selfLoop(t)
	labels := make([]int, c.NumNodes())
	labels[g] = 1
	// L=1, phi=1: (g,1) candidate. With LowDepth=0 it is frontier; with
	// LowDepth=1 it expands one level to (pi,1) and (g,2).
	x0, _ := (&Builder{}).Build(c, g, labels, 1, 1, Options{LowDepth: 0})
	if id := x0.Index(g, 1); id < 0 || !x0.Nodes[id].Frontier {
		t.Error("LowDepth=0: (g,1) must be frontier")
	}
	if x0.Index(g, 2) >= 0 {
		t.Error("LowDepth=0: (g,2) must not exist")
	}
	x1, _ := (&Builder{}).Build(c, g, labels, 1, 1, Options{LowDepth: 1})
	if id := x1.Index(g, 1); id < 0 || x1.Nodes[id].Frontier {
		t.Error("LowDepth=1: (g,1) should be expanded")
	}
	if x1.Index(g, 2) < 0 || x1.Index(pi, 1) < 0 {
		t.Error("LowDepth=1: children of (g,1) missing")
	}
}
