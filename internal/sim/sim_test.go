package sim

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// toggler builds a 1-bit counter: q' = q XOR en, observed at out.
func toggler(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("toggle")
	en := c.AddPI("en")
	g := c.AddGate("next", logic.XorAll(2),
		netlist.Fanin{From: en}, netlist.Fanin{From: en}) // placeholder
	c.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("out", g, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTogglerBehaviour(t *testing.T) {
	s, err := New(toggler(t))
	if err != nil {
		t.Fatal(err)
	}
	// en=1 every cycle: out = 1,0,1,0,... (out is the NEXT state value).
	want := []bool{true, false, true, false, true}
	for i, w := range want {
		got := s.Step([]bool{true})
		if got[0] != w {
			t.Fatalf("cycle %d: out=%v want %v", i, got[0], w)
		}
	}
	// en=0 holds the state, which is 1 after five toggles.
	hold := s.Step([]bool{false})
	if hold[0] != true {
		t.Fatal("state should hold at 1 with en=0")
	}
}

func TestShiftRegisterDepth(t *testing.T) {
	// out = in delayed by 3 cycles via one weight-3 edge.
	c := netlist.NewCircuit("delay3")
	in := c.AddPI("in")
	g := c.AddGate("buf", logic.Buf(), netlist.Fanin{From: in, Weight: 3})
	c.AddPO("out", g, 0)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	seq := []bool{true, false, true, true, false, false, true, false}
	var got []bool
	for _, v := range seq {
		got = append(got, s.Step([]bool{v})[0])
	}
	for i := range seq {
		want := false
		if i >= 3 {
			want = seq[i-3]
		}
		if got[i] != want {
			t.Fatalf("delay wrong at cycle %d: got %v want %v", i, got[i], want)
		}
	}
}

func TestPODelayedByWeight(t *testing.T) {
	c := netlist.NewCircuit("podelay")
	in := c.AddPI("in")
	g := c.AddGate("buf", logic.Buf(), netlist.Fanin{From: in})
	c.AddPO("out", g, 2)
	s, err := New(c)
	if err != nil {
		t.Fatal(err)
	}
	if s.Step([]bool{true})[0] != false {
		t.Fatal("PO weight ignored at cycle 0")
	}
	s.Step([]bool{false})
	if s.Step([]bool{false})[0] != true {
		t.Fatal("PO weight should deliver cycle-0 value at cycle 2")
	}
}

func TestCompareIdenticalAndLatency(t *testing.T) {
	a := toggler(t)
	b := toggler(t)
	rng := rand.New(rand.NewSource(5))
	vecs := RandomVectors(rng, 200, 1)
	if err := Compare(a, b, vecs, 0, 0); err != nil {
		t.Fatalf("identical circuits differ: %v", err)
	}

	// b2 = toggler with one extra pipeline FF on the PO: latency 1.
	b2 := toggler(t)
	b2.Nodes[b2.POs[0]].Fanins[0].Weight++
	b2.InvalidateCaches()
	if err := Compare(a, b2, vecs, 1, 1); err != nil {
		t.Fatalf("latency-aligned compare failed: %v", err)
	}
	if err := Compare(a, b2, vecs, 1, 0); err == nil {
		t.Fatal("misaligned compare should fail")
	}
}

func TestCompareDetectsFunctionalChange(t *testing.T) {
	a := toggler(t)
	b := toggler(t)
	g := b.IDByName("next")
	b.Nodes[g].Func = logic.OrAll(2) // q' = q OR en: sticks at 1
	rng := rand.New(rand.NewSource(6))
	vecs := RandomVectors(rng, 64, 1)
	err := Compare(a, b, vecs, 0, 0)
	if err == nil {
		t.Fatal("functional change not detected")
	}
	if _, ok := err.(*Mismatch); !ok {
		t.Fatalf("want *Mismatch, got %T: %v", err, err)
	}
}

func TestCompareInterfaceMismatch(t *testing.T) {
	a := toggler(t)
	b := netlist.NewCircuit("empty")
	b.AddPI("x")
	if err := Compare(a, b, nil, 0, 0); err == nil {
		t.Fatal("interface mismatch not reported")
	}
}

func TestCombEquivalent(t *testing.T) {
	mk := func(fn *logic.TT) *netlist.Circuit {
		c := netlist.NewCircuit("comb")
		a := c.AddPI("a")
		b := c.AddPI("b")
		g := c.AddGate("g", fn, netlist.Fanin{From: a}, netlist.Fanin{From: b})
		c.AddPO("z", g, 0)
		return c
	}
	eq, err := CombEquivalent(mk(logic.XorAll(2)), mk(logic.XorAll(2)), 10)
	if err != nil || !eq {
		t.Fatalf("same function: eq=%v err=%v", eq, err)
	}
	eq, err = CombEquivalent(mk(logic.XorAll(2)), mk(logic.AndAll(2)), 10)
	if err != nil || eq {
		t.Fatalf("different function: eq=%v err=%v", eq, err)
	}
	if _, err := CombEquivalent(toggler(t), toggler(t), 10); err == nil {
		t.Fatal("sequential circuits must be rejected")
	}
}

func TestStepPanicsOnBadWidth(t *testing.T) {
	s, err := New(toggler(t))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong input width")
		}
	}()
	s.Step([]bool{true, false})
}
