package core

import (
	"context"
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

func turboMapOpts() Options {
	return Options{Decompose: false, PLD: true, Pipelined: true}.withDefaults()
}

func turboSYNOpts() Options {
	return DefaultOptions()
}

// minimizeOnce minimizes c on a throwaway engine.
func minimizeOnce(c *netlist.Circuit, opts Options) (*Result, error) {
	return minimizeOnceContext(context.Background(), c, opts)
}

// minimizeOnceContext is minimizeOnce under ctx.
func minimizeOnceContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MinimizeContext(ctx, opts)
}

// feasibleOnce decides phi for c on a throwaway engine.
func feasibleOnce(c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	return feasibleOnceContext(context.Background(), c, phi, opts)
}

// feasibleOnceContext is feasibleOnce under ctx.
func feasibleOnceContext(ctx context.Context, c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return false, Stats{}, err
	}
	defer e.Close()
	return e.FeasibleContext(ctx, phi, opts)
}

// toggler: g = XOR(pi, g@1).
func toggler(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("toggle")
	pi := c.AddPI("en")
	g := c.AddGate("g", logic.XorAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	c.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("q", g, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// loop6: g1 = AND(x1, g6@1), gi = AND(g(i-1), xi) for i=2..6, PO = g6.
// The single loop holds 6 gates and 1 register. A K=5 LUT cannot swallow
// the whole 7-input loop cone structurally, so TurboMap's best MDR ratio is
// 2; TurboSYN resynthesizes the wide AND cone and reaches ratio 1 — the
// paper's Figure-1 phenomenon.
func loop6(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("loop6")
	xs := make([]int, 7)
	for i := 1; i <= 6; i++ {
		xs[i] = c.AddPI(string(rune('a' + i - 1)))
	}
	g1 := c.AddGate("g1", logic.AndAll(2),
		netlist.Fanin{From: xs[1]}, netlist.Fanin{From: xs[1]})
	prev := g1
	for i := 2; i <= 6; i++ {
		prev = c.AddGate("g"+string(rune('0'+i)), logic.AndAll(2),
			netlist.Fanin{From: prev}, netlist.Fanin{From: xs[i]})
	}
	c.Nodes[g1].Fanins[1] = netlist.Fanin{From: prev, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestTogglerMapsAtRatio1(t *testing.T) {
	c := toggler(t)
	res, err := minimizeOnce(c, turboMapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 1 {
		t.Fatalf("phi = %d, want 1", res.Phi)
	}
	if res.LUTs != 1 {
		t.Fatalf("LUTs = %d, want 1", res.LUTs)
	}
	rng := rand.New(rand.NewSource(1))
	vecs := sim.RandomVectors(rng, 100, 1)
	if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 4); err != nil {
		t.Fatalf("mapped network diverges: %v", err)
	}
}

func TestLoop6TurboMapVsTurboSYN(t *testing.T) {
	c := loop6(t)
	tm, err := minimizeOnce(c, turboMapOpts())
	if err != nil {
		t.Fatal(err)
	}
	if tm.Phi != 2 {
		t.Fatalf("TurboMap phi = %d, want 2", tm.Phi)
	}
	ts, err := minimizeOnce(c, turboSYNOpts())
	if err != nil {
		t.Fatal(err)
	}
	if ts.Phi != 1 {
		t.Fatalf("TurboSYN phi = %d, want 1 (resynthesis must break the loop cone)", ts.Phi)
	}
	if ts.Stats.Decompositions == 0 {
		t.Fatal("TurboSYN should have used sequential decomposition")
	}
	// Both mapped networks are cycle-accurate equivalents.
	rng := rand.New(rand.NewSource(2))
	vecs := sim.RandomVectors(rng, 300, 6)
	if err := sim.CompareAligned(c, tm.Mapped, tm.OrigOf, vecs, 8); err != nil {
		t.Fatalf("TurboMap mapping diverges: %v", err)
	}
	if err := sim.CompareAligned(c, ts.Mapped, ts.OrigOf, vecs, 8); err != nil {
		t.Fatalf("TurboSYN mapping diverges: %v", err)
	}
	// The mapped MDR ratios certify the labels.
	if got := retime.MaxCycleRatioCeil(ts.Mapped); got > 1 {
		t.Fatalf("TurboSYN mapped MDR ceil = %d, want <= 1", got)
	}
	if got := retime.MaxCycleRatioCeil(tm.Mapped); got > 2 {
		t.Fatalf("TurboMap mapped MDR ceil = %d, want <= 2", got)
	}
	// Retiming + pipelining realizes the period.
	for _, res := range []*Result{tm, ts} {
		r, ok := retime.RetimeForPeriod(res.Mapped, res.Phi, true)
		if !ok {
			t.Fatalf("phi=%d not realizable on mapped network", res.Phi)
		}
		d, err := retime.Apply(res.Mapped, r)
		if err != nil {
			t.Fatal(err)
		}
		if retime.Period(d) > res.Phi {
			t.Fatalf("retimed period %d > %d", retime.Period(d), res.Phi)
		}
	}
}

func TestCombinationalActsLikeFlowMap(t *testing.T) {
	// Balanced 2-input AND tree over 16 PIs: 15 gates, gate depth 4.
	// K=4 LUTs cover two levels each: optimal depth 2.
	c := netlist.NewCircuit("tree16")
	var level []int
	for i := 0; i < 16; i++ {
		level = append(level, c.AddPI(string(rune('a'+i))))
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
	opts := turboMapOpts()
	opts.K = 4
	opts.Pipelined = false
	res, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi != 2 {
		t.Fatalf("depth = %d, want 2", res.Phi)
	}
	eq, err := sim.CombEquivalent(c, res.Mapped, 16)
	if err != nil || !eq {
		t.Fatalf("mapped tree not equivalent: %v %v", eq, err)
	}
	// 16 inputs / 4-LUTs: at least 5 LUTs; a good mapping uses exactly 5.
	if res.LUTs > 6 {
		t.Errorf("LUT count %d is poor for tree16", res.LUTs)
	}
}

func TestPLDSpeedsUpInfeasibleProbe(t *testing.T) {
	c := loop6(t)
	optsOn := turboMapOpts()
	optsOff := turboMapOpts()
	optsOff.PLD = false
	okOn, statsOn, err := feasibleOnce(c, 1, optsOn)
	if err != nil {
		t.Fatal(err)
	}
	okOff, statsOff, err := feasibleOnce(c, 1, optsOff)
	if err != nil {
		t.Fatal(err)
	}
	if okOn || okOff {
		t.Fatal("ratio 1 must be infeasible for TurboMap on loop6")
	}
	if statsOn.PLDHits == 0 {
		t.Error("PLD should have detected the positive loop")
	}
	if statsOn.Iterations >= statsOff.Iterations {
		t.Errorf("PLD did not reduce iterations: %d vs %d",
			statsOn.Iterations, statsOff.Iterations)
	}
}

// TestPLDWalkSeesUpstreamSupport: the grounding certificate measures member
// labels against base, the best support entering the component, not against
// the ground. A self-loop fed by a chain has labels far above 1 at a feasible
// phi (high base), and a feasible ring has every member but the first
// labelled at least base+2; in both the one member still near base keeps
// the component grounded, so PLD never fires and the verdict is the n^2
// rule's, on the sequential path and under the dataflow scheduler alike.
func TestPLDWalkSeesUpstreamSupport(t *testing.T) {
	// K=2 chain ci = AND(c(i-1), xi), so labels climb 1..6 along it, then
	// g = AND(c6, g@1): g's label sits above the chain's and its self-loop
	// cannot support it at phi=2.
	chainLoop := netlist.NewCircuit("chainloop")
	prev := chainLoop.AddPI("x0")
	for i := 1; i <= 6; i++ {
		prev = chainLoop.AddGate("", logic.AndAll(2),
			netlist.Fanin{From: prev}, netlist.Fanin{From: chainLoop.AddPI("x" + string(rune('0'+i)))})
	}
	g := chainLoop.AddGate("g", logic.AndAll(2), netlist.Fanin{From: prev}, netlist.Fanin{From: prev})
	chainLoop.Nodes[g].Fanins[1] = netlist.Fanin{From: g, Weight: 1}
	chainLoop.InvalidateCaches()
	chainLoop.AddPO("z", g, 0)

	// An 8-gate ring r1 = AND(r8@1, y1), ri = AND(r(i-1), yi): with K=2 no
	// LUT covers two ring gates, so at phi 8 the labels converge to 1..8
	// above base 0.
	const ringLen = 8
	ring := netlist.NewCircuit("ring")
	first := ring.AddGate("r1", logic.AndAll(2), netlist.Fanin{From: ring.AddPI("y1")}, netlist.Fanin{From: ring.AddPI("y0")})
	prev = first
	for i := 2; i <= ringLen; i++ {
		prev = ring.AddGate("", logic.AndAll(2),
			netlist.Fanin{From: prev}, netlist.Fanin{From: ring.AddPI("y" + string(rune('0'+i)))})
	}
	ring.Nodes[first].Fanins[0] = netlist.Fanin{From: prev, Weight: 1}
	ring.InvalidateCaches()
	ring.AddPO("z", prev, 0)

	for _, tc := range []struct {
		c    *netlist.Circuit
		phi  int
		node int
	}{
		{chainLoop, 2, g},
		{ring, ringLen, prev},
	} {
		if err := tc.c.Check(); err != nil {
			t.Fatal(err)
		}
		for _, decompose := range []bool{false, true} {
			opts := turboMapOpts()
			opts.K = 2
			opts.Decompose = decompose
			for _, workers := range []int{1, 2} {
				opts.Workers = workers
				s := newState(tc.c, tc.phi, opts)
				ok, err := s.run()
				if err != nil || !ok {
					t.Fatalf("%s decompose=%v workers=%d: phi %d must be feasible (ok=%v, err=%v)",
						tc.c.Name, decompose, workers, tc.phi, ok, err)
				}
				if s.stats.PLDHits != 0 {
					t.Errorf("%s decompose=%v workers=%d: PLD fired on a feasible loop", tc.c.Name, decompose, workers)
				}
				comp := s.sccs.Comp[tc.node]
				switch {
				case tc.c == chainLoop && s.labels[g] <= 1:
					t.Fatalf("decompose=%v workers=%d: label(g) = %d; g must not be ground itself", decompose, workers, s.labels[g])
				case tc.c == ring && !decompose:
					for i, id := range s.an.members(comp) {
						if s.labels[id] != i+1 {
							t.Fatalf("workers=%d: ring gate %d has label %d, want %d", workers, i+1, s.labels[id], i+1)
						}
					}
				}
				if !s.grounded(s.an.updatable(comp), s.groundingFor(comp)) {
					t.Errorf("%s decompose=%v workers=%d: converged loop reported ungrounded", tc.c.Name, decompose, workers)
				}
			}
		}
	}
}

func TestFeasibleMonotone(t *testing.T) {
	c := loop6(t)
	opts := turboMapOpts()
	prev := false
	for phi := 1; phi <= 7; phi++ {
		ok, _, err := feasibleOnce(c, phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		if prev && !ok {
			t.Fatalf("feasibility not monotone at phi=%d", phi)
		}
		prev = ok
	}
	if !prev {
		t.Fatal("large phi must be feasible")
	}
}

func TestClockPeriodObjectiveDiffersFromRatio(t *testing.T) {
	// loop6's PO hangs on a register-free path from the PIs... actually it
	// taps the loop. Use a circuit with a long input chain: pipelining
	// (ratio objective) wins, pure clock period cannot.
	c := netlist.NewCircuit("chainy")
	pi := c.AddPI("x")
	g := c.AddGate("c1", logic.Buf(), netlist.Fanin{From: pi})
	for i := 2; i <= 8; i++ {
		g = c.AddGate("", logic.Buf(), netlist.Fanin{From: g})
	}
	c.AddPO("z", g, 0)
	opts := turboMapOpts()
	opts.K = 2
	opts.Pipelined = false
	res, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	// 8 buffers at K=2: LUTs absorb 2 levels each -> depth 4... a K=2 LUT
	// has 2 inputs; a buffer chain collapses entirely into 1 LUT.
	if res.Phi != 1 {
		t.Fatalf("chain of buffers should map to depth 1, got %d", res.Phi)
	}
	if res.LUTs != 1 {
		t.Errorf("buffer chain should collapse to 1 LUT, got %d", res.LUTs)
	}
}

func TestValidation(t *testing.T) {
	c := netlist.NewCircuit("wide")
	var fanins []netlist.Fanin
	for i := 0; i < 7; i++ {
		fanins = append(fanins, netlist.Fanin{From: c.AddPI(string(rune('a' + i)))})
	}
	g := c.AddGate("w", logic.AndAll(7), fanins...)
	c.AddPO("z", g, 0)
	if _, _, err := feasibleOnce(c, 3, turboSYNOpts()); err == nil {
		t.Fatal("non-K-bounded input must be rejected")
	}
}

// randomSequential builds a well-formed K-bounded sequential circuit.
func randomSequential(rng *rand.Rand, nGates, k int) *netlist.Circuit {
	c := netlist.NewCircuit("rnd")
	nPI := 2 + rng.Intn(4)
	ids := make([]int, 0, nGates+nPI)
	for i := 0; i < nPI; i++ {
		ids = append(ids, c.AddPI(string(rune('a'+i))))
	}
	mkfn := func(nf int) *logic.TT {
		switch rng.Intn(4) {
		case 0:
			return logic.AndAll(nf)
		case 1:
			return logic.OrAll(nf)
		case 2:
			return logic.XorAll(nf)
		default:
			f := logic.NewTT(nf)
			for i := 0; i < f.NumBits(); i++ {
				if rng.Intn(2) == 1 {
					f.SetBit(i, true)
				}
			}
			return f
		}
	}
	gates := make([]int, 0, nGates)
	for i := 0; i < nGates; i++ {
		nf := 1 + rng.Intn(k)
		fanins := make([]netlist.Fanin, nf)
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
		}
		id := c.AddGate("", mkfn(nf), fanins...)
		ids = append(ids, id)
		gates = append(gates, id)
	}
	// Back edges with a register.
	for i := 0; i < nGates/4; i++ {
		g := gates[rng.Intn(len(gates))]
		n := c.Nodes[g]
		slot := rng.Intn(len(n.Fanins))
		n.Fanins[slot] = netlist.Fanin{
			From:   gates[rng.Intn(len(gates))],
			Weight: 1 + rng.Intn(2),
		}
	}
	c.InvalidateCaches()
	for i := 0; i < 2; i++ {
		c.AddPO("z"+string(rune('0'+i)), gates[len(gates)-1-i], rng.Intn(2))
	}
	return c
}

func TestRandomCircuitsEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	k := 5
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 10+rng.Intn(30), k)
		if c.Check() != nil {
			continue // generator can build comb cycles; skip
		}
		tmOpts := turboMapOpts()
		tm, err := minimizeOnce(c, tmOpts)
		if err != nil {
			t.Fatalf("seed %d: TurboMap: %v", seed, err)
		}
		ts, err := minimizeOnce(c, turboSYNOpts())
		if err != nil {
			t.Fatalf("seed %d: TurboSYN: %v", seed, err)
		}
		if ts.Phi > tm.Phi {
			t.Fatalf("seed %d: TurboSYN (%d) worse than TurboMap (%d)", seed, ts.Phi, tm.Phi)
		}
		for name, res := range map[string]*Result{"tm": tm, "ts": ts} {
			if err := res.Mapped.Check(); err != nil {
				t.Fatalf("seed %d %s: bad mapped network: %v", seed, name, err)
			}
			if !res.Mapped.IsKBounded(k) {
				t.Fatalf("seed %d %s: not K-bounded", seed, name)
			}
			if got := retime.MaxCycleRatioCeil(res.Mapped); got > res.Phi {
				t.Fatalf("seed %d %s: mapped MDR ceil %d > phi %d", seed, name, got, res.Phi)
			}
			if _, ok := retime.RetimeForPeriod(res.Mapped, res.Phi, true); !ok {
				t.Fatalf("seed %d %s: phi %d not realizable", seed, name, res.Phi)
			}
			vecs := sim.RandomVectors(rng, 120, len(c.PIs))
			if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 10); err != nil {
				t.Fatalf("seed %d %s: mapping diverges: %v", seed, name, err)
			}
		}
	}
}
