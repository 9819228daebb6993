package retime

import (
	"math/rand"
	"testing"
	"testing/quick"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/sim"
)

// chain builds pi -(w=3)-> g1 -> g2 -> g3 -> po: period 3, retimable to 1.
func chain(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("chain")
	pi := c.AddPI("x")
	g1 := c.AddGate("g1", logic.Inv(), netlist.Fanin{From: pi, Weight: 3})
	g2 := c.AddGate("g2", logic.Inv(), netlist.Fanin{From: g1})
	g3 := c.AddGate("g3", logic.Inv(), netlist.Fanin{From: g2})
	c.AddPO("z", g3, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// ring builds a loop of k unit-delay gates carrying w registers, fed by a
// PI through an AND gate, observed at a PO. MDR = k/w.
func ring(t *testing.T, k, w int) *netlist.Circuit {
	t.Helper()
	if k < 2 {
		t.Fatal("ring needs k >= 2")
	}
	c := netlist.NewCircuit("ring")
	pi := c.AddPI("x")
	first := c.AddGate("r0", logic.AndAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi}) // placeholder
	prev := first
	for i := 1; i < k; i++ {
		prev = c.AddGate("r"+string(rune('0'+i)), logic.Buf(), netlist.Fanin{From: prev})
	}
	c.Nodes[first].Fanins[1] = netlist.Fanin{From: prev, Weight: w}
	c.InvalidateCaches()
	c.AddPO("z", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestPeriod(t *testing.T) {
	c := chain(t)
	if got := Period(c); got != 3 {
		t.Fatalf("Period = %d, want 3", got)
	}
	if got := Period(ring(t, 4, 2)); got != 4 {
		t.Fatalf("ring period = %d, want 4", got)
	}
}

func TestMinPeriodChain(t *testing.T) {
	c := chain(t)
	phi, r := MinPeriod(c)
	if phi != 1 {
		t.Fatalf("min period = %d, want 1", phi)
	}
	d, err := Apply(c, r)
	if err != nil {
		t.Fatal(err)
	}
	if got := Period(d); got != 1 {
		t.Fatalf("retimed period = %d", got)
	}
	if d.NumFFs() == 0 {
		t.Fatal("registers vanished")
	}
	// Behaviour preserved after the registers flush.
	rng := rand.New(rand.NewSource(2))
	vecs := sim.RandomVectors(rng, 100, 1)
	if err := sim.Compare(c, d, vecs, 4, 0); err != nil {
		t.Fatalf("retimed circuit diverges: %v", err)
	}
}

func TestMinPeriodRing(t *testing.T) {
	// 4 gates, 2 registers in the loop — but the PI->PO tap path carries no
	// registers, so behaviour-preserving retiming cannot beat the current
	// period 4. (Pipelining can: see the pipelined tests.)
	c := ring(t, 4, 2)
	phi, r := MinPeriod(c)
	if phi != 4 {
		t.Fatalf("ring min period = %d, want 4", phi)
	}
	d, err := Apply(c, r)
	if err != nil {
		t.Fatal(err)
	}
	if Period(d) > phi {
		t.Fatal("retiming does not achieve claimed period")
	}
	// With pipelining the loop bound (MDR = 2) governs.
	phiP, rp := MinPeriodPipelined(c)
	if phiP != 2 {
		t.Fatalf("pipelined ring period = %d, want 2", phiP)
	}
	dp, err := Apply(c, rp)
	if err != nil {
		t.Fatal(err)
	}
	if Period(dp) > 2 {
		t.Fatal("pipelined retiming misses period 2")
	}
}

func TestRetimeForPeriodInfeasible(t *testing.T) {
	// MDR of ring(4,2) is 2: period 1 impossible even with pipelining.
	c := ring(t, 4, 2)
	if _, ok := RetimeForPeriod(c, 1, false); ok {
		t.Fatal("period 1 should be infeasible")
	}
	if _, ok := RetimeForPeriod(c, 1, true); ok {
		t.Fatal("period 1 should be infeasible even pipelined")
	}
	if _, ok := RetimeForPeriod(c, 0, true); ok {
		t.Fatal("period 0 must be rejected")
	}
}

func TestApplyValidation(t *testing.T) {
	c := chain(t)
	r := make([]int, c.NumNodes())
	if _, err := Apply(c, r[:2]); err == nil {
		t.Error("short lag vector accepted")
	}
	r[c.PIs[0]] = 1
	if _, err := Apply(c, r); err == nil {
		t.Error("PI lag accepted")
	}
	r[c.PIs[0]] = 0
	r[c.POs[0]] = -1
	if _, err := Apply(c, r); err == nil {
		t.Error("negative PO lag accepted")
	}
	r[c.POs[0]] = 0
	r[c.IDByName("g1")] = -1 // would drive pi->g1 weight to 2, g1->g2 to 1; legal
	if _, err := Apply(c, r); err != nil {
		t.Errorf("legal retiming rejected: %v", err)
	}
	r[c.IDByName("g1")] = 1 // pi->g1 weight 4, g1->g2 weight -1
	if _, err := Apply(c, r); err == nil {
		t.Error("negative edge weight accepted")
	}
}

func TestPipelinePIsAndLatency(t *testing.T) {
	// Pure feed-forward adder tree: pipelining reaches period 1.
	c := netlist.NewCircuit("tree")
	a, b, d, e := c.AddPI("a"), c.AddPI("b"), c.AddPI("c"), c.AddPI("d")
	g1 := c.AddGate("g1", logic.XorAll(2), netlist.Fanin{From: a}, netlist.Fanin{From: b})
	g2 := c.AddGate("g2", logic.XorAll(2), netlist.Fanin{From: d}, netlist.Fanin{From: e})
	g3 := c.AddGate("g3", logic.XorAll(2), netlist.Fanin{From: g1}, netlist.Fanin{From: g2})
	g4 := c.AddGate("g4", logic.Inv(), netlist.Fanin{From: g3})
	c.AddPO("z", g4, 0)
	if Period(c) != 3 {
		t.Fatalf("period = %d", Period(c))
	}
	phi, r := MinPeriodPipelined(c)
	if phi != 1 {
		t.Fatalf("pipelined min period = %d, want 1", phi)
	}
	lat := Latency(c, r)
	if lat[0] <= 0 {
		t.Fatalf("pipelining must add latency, got %v", lat)
	}
	d2, err := Apply(c, r)
	if err != nil {
		t.Fatal(err)
	}
	if Period(d2) > 1 {
		t.Fatal("pipelined retiming misses period")
	}
	// Outputs match with the reported latency.
	rng := rand.New(rand.NewSource(3))
	vecs := sim.RandomVectors(rng, 60, 4)
	if err := sim.Compare(c, d2, vecs, lat[0], lat[0]); err != nil {
		t.Fatalf("pipelined circuit diverges: %v", err)
	}
}

func TestMinPeriodPipelinedBoundedByLoops(t *testing.T) {
	// ring(6,2): MDR = 3; pipelining cannot beat the loop bound.
	c := ring(t, 6, 2)
	phi, _ := MinPeriodPipelined(c)
	if phi != 3 {
		t.Fatalf("pipelined period = %d, want 3 (the loop bound)", phi)
	}
}

func TestMaxCycleRatio(t *testing.T) {
	cases := []struct {
		k, w     int
		num, den int64
	}{
		{4, 2, 2, 1},
		{6, 4, 3, 2},
		{5, 3, 5, 3},
		{2, 1, 2, 1},
		{7, 2, 7, 2},
	}
	for _, tc := range cases {
		c := ring(t, tc.k, tc.w)
		num, den := MaxCycleRatio(c)
		if num != tc.num || den != tc.den {
			t.Errorf("ring(%d,%d): MDR = %d/%d, want %d/%d",
				tc.k, tc.w, num, den, tc.num, tc.den)
		}
		ceil := MaxCycleRatioCeil(c)
		want := int((tc.num + tc.den - 1) / tc.den)
		if ceil != want {
			t.Errorf("ring(%d,%d): ceil = %d, want %d", tc.k, tc.w, ceil, want)
		}
	}
}

func TestMaxCycleRatioAcyclic(t *testing.T) {
	c := chain(t)
	if num, den := MaxCycleRatio(c); num != 0 || den != 1 {
		t.Fatalf("acyclic MDR = %d/%d", num, den)
	}
	if MaxCycleRatioCeil(c) != 0 {
		t.Fatal("acyclic ceil must be 0")
	}
}

func TestMaxCycleRatioTwoLoops(t *testing.T) {
	// Two independent rings: 3 gates/1 FF (ratio 3) and 5 gates/2 FFs
	// (ratio 5/2). The max governs.
	c := netlist.NewCircuit("two")
	pi := c.AddPI("x")
	mk := func(prefix string, k, w int) {
		first := c.AddGate(prefix+"0", logic.AndAll(2),
			netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
		prev := first
		for i := 1; i < k; i++ {
			prev = c.AddGate(prefix+string(rune('0'+i)), logic.Buf(), netlist.Fanin{From: prev})
		}
		c.Nodes[first].Fanins[1] = netlist.Fanin{From: prev, Weight: w}
		c.InvalidateCaches()
		c.AddPO(prefix+"z", prev, 0)
	}
	mk("a", 3, 1)
	mk("b", 5, 2)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if num, den := MaxCycleRatio(c); num != 3 || den != 1 {
		t.Fatalf("MDR = %d/%d, want 3/1", num, den)
	}
}

// randomCircuit builds a well-formed sequential circuit: forward edges may
// be registered or not, back edges always carry at least one register.
func randomCircuit(rng *rand.Rand, nGates int) *netlist.Circuit {
	c := netlist.NewCircuit("rand")
	pi := c.AddPI("x")
	ids := []int{pi}
	for i := 0; i < nGates; i++ {
		nf := 1 + rng.Intn(2)
		fanins := make([]netlist.Fanin, nf)
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
		}
		var fn *logic.TT
		switch nf {
		case 1:
			fn = logic.Buf()
		default:
			fn = logic.AndAll(nf)
		}
		ids = append(ids, c.AddGate("", fn, fanins...))
	}
	// A few back edges (weight >= 1) rewiring existing fanins.
	for i := 0; i < nGates/3; i++ {
		g := ids[1+rng.Intn(nGates)]
		n := c.Nodes[g]
		slot := rng.Intn(len(n.Fanins))
		n.Fanins[slot] = netlist.Fanin{From: ids[1+rng.Intn(nGates)], Weight: 1 + rng.Intn(2)}
	}
	c.InvalidateCaches()
	c.AddPO("z", ids[len(ids)-1], 0)
	return c
}

func TestRetimingPropertiesQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 3+rng.Intn(25))
		if c.Check() != nil {
			return true // generator may create comb cycles; skip those
		}
		p0 := Period(c)
		phi, r := MinPeriod(c)
		if phi > p0 {
			t.Logf("seed %d: min period %d exceeds current %d", seed, phi, p0)
			return false
		}
		d, err := Apply(c, r)
		if err != nil {
			t.Logf("seed %d: apply failed: %v", seed, err)
			return false
		}
		if Period(d) > phi {
			t.Logf("seed %d: retimed period %d > claimed %d", seed, Period(d), phi)
			return false
		}
		// MDR is invariant under retiming.
		n1, d1 := MaxCycleRatio(c)
		n2, d2 := MaxCycleRatio(d)
		if n1*d2 != n2*d1 {
			t.Logf("seed %d: MDR changed by retiming: %d/%d -> %d/%d", seed, n1, d1, n2, d2)
			return false
		}
		// Pipelined optimum equals the loop bound.
		phiP, rp := MinPeriodPipelined(c)
		ceil := MaxCycleRatioCeil(c)
		want := ceil
		if want < 1 {
			want = 1
		}
		if phiP != want {
			t.Logf("seed %d: pipelined period %d, loop bound %d", seed, phiP, want)
			return false
		}
		dp, err := Apply(c, rp)
		if err != nil || Period(dp) > phiP {
			t.Logf("seed %d: pipelined apply/period wrong", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCycleWeightInvariant(t *testing.T) {
	// Retiming must preserve every cycle's register count; spot-check via
	// total FF count on the ring (single cycle + acyclic rest).
	c := ring(t, 5, 3)
	_, r := MinPeriod(c)
	d, err := Apply(c, r)
	if err != nil {
		t.Fatal(err)
	}
	n1, d1 := MaxCycleRatio(c)
	n2, d2 := MaxCycleRatio(d)
	if n1*d2 != n2*d1 {
		t.Fatalf("cycle ratio changed: %d/%d -> %d/%d", n1, d1, n2, d2)
	}
}
