package bench

import (
	"math/rand"
	"strings"
	"testing"

	"turbosyn/internal/graph"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

func TestSuiteWellFormed(t *testing.T) {
	cases := Suite()
	if len(cases) != 16 {
		t.Fatalf("suite has %d cases, want 16", len(cases))
	}
	fsm, iscas := 0, 0
	for _, cs := range cases {
		if err := cs.Circuit.Check(); err != nil {
			t.Errorf("%s: %v", cs.Name, err)
			continue
		}
		if !cs.Circuit.IsKBounded(2) {
			t.Errorf("%s: not 2-bounded (max fanin %d)", cs.Name, cs.Circuit.MaxFanin())
		}
		if cs.Circuit.NumFFs() == 0 {
			t.Errorf("%s: no registers", cs.Name)
		}
		switch cs.Class {
		case "mcnc-fsm":
			fsm++
		case "iscas89":
			iscas++
		}
		// Every case must have at least one nontrivial SCC (loops are the
		// whole point of the evaluation).
		s := graph.StronglyConnected(cs.Circuit.Adj())
		nontrivial := false
		for comp := range s.Members {
			if !s.IsTrivial(cs.Circuit.Adj(), comp) {
				nontrivial = true
				break
			}
		}
		if !nontrivial {
			t.Errorf("%s: no loops", cs.Name)
		}
	}
	if fsm != 12 || iscas != 4 {
		t.Errorf("class split %d/%d, want 12/4", fsm, iscas)
	}
}

func TestSuiteDeterministic(t *testing.T) {
	a := Suite()
	b := Suite()
	for i := range a {
		if a[i].Circuit.NumNodes() != b[i].Circuit.NumNodes() ||
			a[i].Circuit.NumFFs() != b[i].Circuit.NumFFs() {
			t.Fatalf("%s: suite not deterministic", a[i].Name)
		}
	}
}

func TestSuiteScales(t *testing.T) {
	// The roster must span roughly two orders of magnitude in gate count.
	minG, maxG := 1<<30, 0
	for _, cs := range Suite() {
		g := cs.Circuit.NumGates()
		if g < minG {
			minG = g
		}
		if g > maxG {
			maxG = g
		}
		t.Logf("%-8s %-8s gates=%4d ffs=%3d period=%d",
			cs.Name, cs.Class, g, cs.Circuit.NumFFs(), retime.Period(cs.Circuit))
	}
	if minG < 20 || maxG < 500 {
		t.Errorf("suite scale looks wrong: min %d max %d", minG, maxG)
	}
}

func TestAccumulatorBehaviour(t *testing.T) {
	// Without feedback taps, the accumulator must actually add: drive
	// in=1 once and watch the low bit toggle.
	c := Accumulator("acc4", 4, nil)
	s, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	one := make([]bool, 4)
	one[0] = true
	zero := make([]bool, 4)
	// acc starts 0; after adding 1 the low sum bit flips each cycle of
	// continuous add-1.
	v1 := s.Step(one) // sum = 0+1 = 1: low=1
	if !v1[1] {
		t.Fatalf("sum low bit wrong: %v", v1)
	}
	v2 := s.Step(one) // acc=1, +1: sum=2: low=0
	if v2[1] {
		t.Fatalf("second add wrong: %v", v2)
	}
	_ = zero
}

func TestLFSRCycles(t *testing.T) {
	c := LFSR("l8", 8, []int{2, 5})
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	s, err := sim.New(c)
	if err != nil {
		t.Fatal(err)
	}
	// All-zero state stays zero with en=0.
	for i := 0; i < 10; i++ {
		if out := s.Step([]bool{false}); out[0] {
			t.Fatal("LFSR self-activated")
		}
	}
}

func TestFSMGenerator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := FSM(rng, "m", FSMSpec{StateBits: 4, Inputs: 3, Outputs: 2, Cubes: 5, Span: 4})
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if c.NumFFs() != 4 {
		t.Fatalf("FF count %d, want 4 (one per state bit)", c.NumFFs())
	}
	if len(c.PIs) != 3 || len(c.POs) != 2 {
		t.Fatalf("interface %d/%d", len(c.PIs), len(c.POs))
	}
	// State must be reachable from inputs (machine not degenerate).
	s := graph.StronglyConnected(c.Adj())
	nontrivial := 0
	for comp := range s.Members {
		if !s.IsTrivial(c.Adj(), comp) {
			nontrivial++
		}
	}
	if nontrivial == 0 {
		t.Fatal("FSM has no state loops")
	}
}

func TestPipelineShape(t *testing.T) {
	const lanes, depth, regEvery = 8, 64, 8
	c := Pipeline("pipe", lanes, depth, regEvery)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if g := c.NumGates(); g != lanes*depth {
		t.Fatalf("gate count %d, want %d", g, lanes*depth)
	}
	if c.NumFFs() == 0 {
		t.Fatal("pipeline has no register banks")
	}
	if !c.IsKBounded(2) {
		t.Fatalf("not 2-bounded (max fanin %d)", c.MaxFanin())
	}
	// The defining property: fully acyclic, so every SCC is a trivial
	// singleton and the condensation is a deep, narrow DAG — the shape that
	// starves level-synchronized scheduling.
	s := graph.StronglyConnected(c.Adj())
	for comp := range s.Members {
		if !s.IsTrivial(c.Adj(), comp) {
			t.Fatalf("component %d is nontrivial; pipeline must be acyclic", comp)
		}
	}
	// Longest-path depth of the condensation (Order is topological).
	levels := make([]int, s.NumComps())
	maxLevel := 0
	for _, comp := range s.Order {
		for _, d := range s.DAG[comp] {
			levels[d] = max(levels[d], levels[comp]+1)
			maxLevel = max(maxLevel, levels[d])
		}
	}
	if maxLevel < depth {
		t.Fatalf("condensation depth %d, want >= stage count %d", maxLevel, depth)
	}
	// Determinism: same arguments, same netlist.
	d := Pipeline("pipe", lanes, depth, regEvery)
	if d.NumNodes() != c.NumNodes() || d.NumFFs() != c.NumFFs() {
		t.Fatal("Pipeline not deterministic")
	}
}

func TestMixedGraftWellFormed(t *testing.T) {
	for _, cs := range Suite() {
		if cs.Name != "s1423" && cs.Name != "s5378" {
			continue
		}
		c := cs.Circuit
		if err := c.Check(); err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		// The grafted controller must actually couple into the datapath:
		// at least one $mix gate exists and lies on a cycle.
		s := graph.StronglyConnected(c.Adj())
		found := false
		for _, n := range c.Nodes {
			if n.Kind != netlist.Gate || !strings.Contains(n.Name, "$mix") {
				continue
			}
			found = true
			if !s.IsTrivial(c.Adj(), s.Comp[n.ID]) {
				return // mixed into a loop: the interesting case holds
			}
		}
		if !found {
			t.Fatalf("%s: graft produced no mix gates", cs.Name)
		}
	}
}
