package turbosyn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/sim"
)

// buildLoop6 is the paper's Figure-1-style circuit (see examples/quickstart).
func buildLoop6(t *testing.T) *Circuit {
	t.Helper()
	c := NewCircuit("loop6")
	and2 := And(2)
	var xs [6]int
	for i := range xs {
		xs[i] = c.AddPI(string(rune('a' + i)))
	}
	g1 := c.AddGate("g1", and2, Fanin{From: xs[0]}, Fanin{From: xs[0]})
	prev := g1
	for i := 1; i < 6; i++ {
		prev = c.AddGate("g"+string(rune('1'+i)), and2,
			Fanin{From: prev}, Fanin{From: xs[i]})
	}
	c.Nodes[g1].Fanins[1] = Fanin{From: prev, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("out", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSynthesizeDefaultsTurboSYN(t *testing.T) {
	c := buildLoop6(t)
	res, err := Synthesize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != TurboSYN {
		t.Errorf("default algorithm = %v", res.Algorithm)
	}
	if res.Phi != 1 {
		t.Fatalf("TurboSYN phi = %d, want 1", res.Phi)
	}
	if res.Realized == nil || ClockPeriod(res.Realized) > 1 {
		t.Fatal("realization missing or misses the period")
	}
	if len(res.Latency) != 1 || res.Latency[0] < 0 {
		t.Fatalf("latency %v", res.Latency)
	}
	// The mapped network is stream-equivalent under aligned initial state.
	rng := rand.New(rand.NewSource(1))
	vecs := sim.RandomVectors(rng, 200, 6)
	if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 8); err != nil {
		t.Fatalf("mapped diverges: %v", err)
	}
}

func TestSynthesizeAlgorithms(t *testing.T) {
	c := buildLoop6(t)
	phis := map[Algorithm]int{}
	for _, alg := range []Algorithm{FlowSYNS, TurboMap, TurboSYN} {
		res, err := Synthesize(c, Options{Algorithm: alg})
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		phis[alg] = res.Phi
	}
	if phis[TurboSYN] > phis[TurboMap] || phis[TurboMap] > phis[FlowSYNS] {
		t.Fatalf("ordering violated: %v", phis)
	}
	if phis[TurboSYN] != 1 || phis[TurboMap] != 2 {
		t.Fatalf("expected 1 vs 2, got %v", phis)
	}
}

// TestFlowSYNSBLIFDeterministic: FlowSYN-s must write the same BLIF on every
// run. The split network once exposed register drivers as pseudo outputs in
// map order, which permuted the written lines from run to run.
func TestFlowSYNSBLIFDeterministic(t *testing.T) {
	var c *Circuit
	for _, cs := range bench.Suite() {
		if cs.Name == "bbara" {
			c = cs.Circuit
		}
	}
	var first []byte
	for run := 0; run < 20; run++ {
		res, err := Synthesize(c, Options{Algorithm: FlowSYNS, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteBLIF(&buf, res.Realized); err != nil {
			t.Fatal(err)
		}
		if run == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("run %d wrote different BLIF than run 0", run)
		}
	}
}

func TestSynthesizeKBoundsWideGates(t *testing.T) {
	c := NewCircuit("wide")
	var fan []Fanin
	for i := 0; i < 9; i++ {
		fan = append(fan, Fanin{From: c.AddPI(string(rune('a' + i)))})
	}
	g := c.AddGate("w", And(9), fan...)
	c.AddPO("z", g, 0)
	res, err := Synthesize(c, Options{K: 4, Objective: MinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Mapped.IsKBounded(4) {
		t.Fatal("result not K-bounded")
	}
	if res.Phi > 2 {
		t.Fatalf("9-input AND at K=4 should map at depth 2, got %d", res.Phi)
	}
	eq, err := sim.CombEquivalent(c, res.Mapped, 10)
	if err != nil || !eq {
		t.Fatalf("equivalence after KBound: %v %v", eq, err)
	}
}

// TestSynthesizeWideConstantGate: a BLIF gate with more than K inputs and
// a constant function (no cubes, or one all-don't-care cube) synthesizes to
// an equivalent netlist.
func TestSynthesizeWideConstantGate(t *testing.T) {
	for _, cover := range []string{"", "------- 1\n"} {
		src := ".model wideconst\n.inputs a b c d e f q\n.outputs n\n.names a b c d e f q n\n" + cover + ".end\n"
		c, err := ReadBLIF(strings.NewReader(src))
		if err != nil {
			t.Fatal(err)
		}
		res, err := Synthesize(c, Options{K: 5})
		if err != nil {
			t.Fatalf("cover %q: %v", cover, err)
		}
		eq, err := sim.CombEquivalent(c, res.Mapped, 7)
		if err != nil || !eq {
			t.Fatalf("cover %q: equivalence: %v %v", cover, eq, err)
		}
	}
}

func TestSynthesizeMinPeriodObjective(t *testing.T) {
	// A retimable chain: behaviour-preserving retiming reaches period 1,
	// and no latency may be added.
	c := NewCircuit("chain")
	pi := c.AddPI("x")
	g1 := c.AddGate("g1", Inv(), Fanin{From: pi, Weight: 3})
	g2 := c.AddGate("g2", Inv(), Fanin{From: g1})
	g3 := c.AddGate("g3", Inv(), Fanin{From: g2})
	c.AddPO("z", g3, 0)
	res, err := Synthesize(c, Options{K: 2, Objective: MinPeriod})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 1 {
		t.Fatalf("phi = %d, want 1", res.Phi)
	}
	for _, l := range res.Latency {
		if l != 0 {
			t.Fatalf("MinPeriod must not add latency: %v", res.Latency)
		}
	}
}

func TestSynthesizeBLIFRoundTrip(t *testing.T) {
	c := buildLoop6(t)
	res, err := Synthesize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, res.Realized); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBLIF(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-reading realized BLIF: %v\n%s", err, buf.String())
	}
	if err := back.Check(); err != nil {
		t.Fatal(err)
	}
	if len(back.PIs) != len(res.Realized.PIs) || len(back.POs) != len(res.Realized.POs) {
		t.Fatal("BLIF round trip changed the interface")
	}
	// The writer may materialize up to one buffer per PO.
	if g := back.NumGates(); g < res.Realized.NumGates() ||
		g > res.Realized.NumGates()+len(res.Realized.POs) {
		t.Fatalf("BLIF round trip changed the LUT count: %d -> %d",
			res.Realized.NumGates(), g)
	}
}

func TestFunctionHelpers(t *testing.T) {
	f, err := FunctionFromBits(2, "0110")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(Xor(2)) {
		t.Fatal("FunctionFromBits mismatch")
	}
	if Nand(2).Equal(And(2)) || Nor(2).Equal(Or(2)) {
		t.Fatal("negated helpers wrong")
	}
	if Mux().NumVars() != 3 || Buf().NumVars() != 1 || Inv().NumVars() != 1 {
		t.Fatal("arity wrong")
	}
	if c, v := ConstFunc(true).IsConst(); !c || !v {
		t.Fatal("ConstFunc wrong")
	}
}

func TestReadBLIFFacade(t *testing.T) {
	src := ".model m\n.inputs a\n.outputs z\n.latch n q 0\n.names a q n\n11 1\n.names q z\n1 1\n.end\n"
	c, err := ReadBLIF(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Synthesize(c, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 1 {
		t.Fatalf("tiny machine should map at ratio 1, got %d", res.Phi)
	}
}

func TestMDRRatioFacade(t *testing.T) {
	c := buildLoop6(t)
	num, den := MDRRatio(c)
	if num != 6 || den != 1 {
		t.Fatalf("MDR = %d/%d, want 6/1", num, den)
	}
	if ClockPeriod(c) != 6 {
		t.Fatalf("period %d", ClockPeriod(c))
	}
}
