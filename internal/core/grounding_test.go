package core

import (
	"math"
	"math/rand"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// groundingVerdicts decides phi with PLD on (the grounding certificate) and
// off (the n^2 rule alone), each under both objectives. The label iteration
// reads Pipelined only in its final output check, so one run per setting
// serves both objectives: the clock-period verdict is the MDR verdict plus
// checkOutputs. extra, when non-negative, caps the n^2 run (IterBudget) at
// extra sweeps past the certificate's iteration count; a negative extra
// lets the n^2 rule run to its own end.
func groundingVerdicts(t *testing.T, c *netlist.Circuit, phi int, opts Options, extra int) (on, off [2]bool) {
	t.Helper()
	decide := func(opts Options) ([2]bool, int) {
		opts.Pipelined = true
		s := newState(c, phi, opts)
		ok, err := s.run()
		if err != nil {
			t.Fatalf("%s phi=%d pld=%v: %v", c.Name, phi, opts.PLD, err)
		}
		s.opts.Pipelined = false
		return [2]bool{ok, ok && s.checkOutputs()}, s.stats.Iterations
	}
	on, iters := decide(opts)
	opts.PLD = false
	if extra >= 0 {
		opts.IterBudget = iters + extra
	}
	off, _ = decide(opts)
	return on, off
}

// checkGrounding compares the two verdicts of every phi from 1 to hi under
// TurboMap and TurboSYN.
func checkGrounding(t *testing.T, c *netlist.Circuit, k, hi, extra int) {
	t.Helper()
	for _, decompose := range []bool{false, true} {
		opts := DefaultOptions()
		opts.K = k
		opts.Decompose = decompose
		opts.Workers = 1
		for phi := 1; phi <= hi; phi++ {
			on, off := groundingVerdicts(t, c, phi, opts, extra)
			if on != off {
				t.Fatalf("%s decompose=%v phi=%d: PLD says feasible (ratio, period) = %v, the n^2 rule %v",
					c.Name, decompose, phi, on, off)
			}
		}
	}
}

// TestGroundingMatchesN2Rule: on the suite circuits, every phi from 1 to
// the clock-period minimum P gets the same verdict from the grounding
// certificate as from the n^2 stopping rule, under TurboMap and TurboSYN and
// both objectives. -short keeps bbara and s420. The n^2 rule's infeasible
// verdicts cost up to n^2 sweeps per component (seconds per probe on the
// larger circuits), so each n^2 run stops 64 sweeps past the certificate's
// iteration count: a feasible probe follows the certificate's trajectory to
// the same fixpoint, and a certificate that fired on a run converging
// within those 64 sweeps is caught. FuzzGrounding compares against the
// uncapped rule. A small ScaleFSM machine, kept under -short, has a
// component whose TurboSYN margin the register-diameter bound lowers
// (loopW 7 against Delta + 2*Wmax = 10), so a certificate that fired too
// early on the moved margin would show there.
func TestGroundingMatchesN2Rule(t *testing.T) {
	short := map[string]bool{"bbara": true, "s420": true, "scale_fsm": true}
	fsm := bench.ScaleFSM("TestGroundingMatchesN2Rule", 8, 4)
	an := analyze(fsm)
	_, delta, wmax := exactLoopBounds(fsm, an)
	moved := false
	for comp, lw := range an.loopW {
		moved = moved || lw < delta[comp]+2*wmax[comp]
	}
	if !moved {
		t.Fatal("scale_fsm: no component's loopW is below Delta + 2*Wmax")
	}
	cases := append(bench.Suite(), bench.Case{Name: "scale_fsm", Circuit: fsm})
	for _, cs := range cases {
		if testing.Short() && !short[cs.Name] {
			continue
		}
		t.Run(cs.Name, func(t *testing.T) {
			opts := DefaultOptions()
			opts.Pipelined = false
			res, err := minimizeOnce(cs.Circuit, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkGrounding(t, cs.Circuit, opts.K, res.Phi, 64)
		})
	}
}

// FuzzGrounding: on random small K-bounded sequential circuits, the
// grounding certificate and the uncapped n^2 rule agree on every phi from 1
// to 8, under TurboMap and TurboSYN and both objectives.
func FuzzGrounding(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(0))
	f.Add(int64(7), uint8(12), uint8(1))
	f.Add(int64(42), uint8(16), uint8(2))
	// TurboSYN feasible at phi 1 with a member label below the label
	// margin: the TurboMap margins alone would certify it infeasible.
	f.Add(int64(-97), uint8('n'), uint8(0x15))
	// A 14-gate K=5 circuit whose 12-member component has loopW 6 against
	// Delta + 2*Wmax = 15: TurboSYN's certificate fires at phi 1 after 13
	// sweeps, where Delta's margin took 22.
	f.Add(int64(3516), uint8(11), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, size, k uint8) {
		K := 2 + int(k)%4
		c := randomSequential(rand.New(rand.NewSource(seed)), 3+int(size)%14, K)
		if c.Check() != nil || !c.IsKBounded(K) {
			return
		}
		checkGrounding(t, c, K, 8, -1)
	})
}

// exactLoopBounds returns, per component of c, the exact weighted register
// diameter (the largest shortest-path register weight between two members,
// over in-component edges), Delta (the sum over members of each member's
// largest in-component out-weight) and Wmax. The diameter is one
// array-scan Dijkstra per member, O(members^2) each: an oracle sized for
// test circuits.
func exactLoopBounds(c *netlist.Circuit, an *analysis) (diam, delta, wmax []int) {
	nc := an.sccs.NumComps()
	diam, delta, wmax = make([]int, nc), make([]int, nc), make([]int, nc)
	type edge struct{ to, w int }
	out := make([][]edge, c.NumNodes())
	outMax := make([]int, c.NumNodes())
	for _, n := range c.Nodes {
		for _, f := range n.Fanins {
			if comp := an.sccs.Comp[n.ID]; an.sccs.Comp[f.From] == comp {
				out[f.From] = append(out[f.From], edge{n.ID, f.Weight})
				outMax[f.From] = max(outMax[f.From], f.Weight)
				wmax[comp] = max(wmax[comp], f.Weight)
			}
		}
	}
	for id, w := range outMax {
		delta[an.sccs.Comp[id]] += w
	}
	dist := make([]int, c.NumNodes())
	done := make([]bool, c.NumNodes())
	for comp := 0; comp < nc; comp++ {
		members := an.members(comp)
		for _, src := range members {
			for _, v := range members {
				dist[v], done[v] = math.MaxInt, false
			}
			dist[src] = 0
			for range members {
				u := -1
				for _, v := range members {
					if !done[v] && dist[v] < math.MaxInt && (u < 0 || dist[v] < dist[u]) {
						u = int(v)
					}
				}
				if u < 0 {
					break
				}
				done[u] = true
				diam[comp] = max(diam[comp], dist[u])
				for _, e := range out[u] {
					dist[e.to] = min(dist[e.to], dist[u]+e.w)
				}
			}
		}
	}
	return diam, delta, wmax
}

// randomStronglyConnected returns an n-gate ring with register weights 0-3
// (the closing edge at least 1) plus random chords; a backward chord
// carries at least one register, so the combinational part stays acyclic.
func randomStronglyConnected(rng *rand.Rand, n int) *netlist.Circuit {
	c := netlist.NewCircuit("ring")
	pi := c.AddPI("a")
	first := c.AddGate("", logic.AndAll(1), netlist.Fanin{From: pi})
	gates := []int{first}
	for i := 1; i < n; i++ {
		fanins := []netlist.Fanin{{From: gates[i-1], Weight: rng.Intn(4)}}
		for j := rng.Intn(3); j > 0; j-- {
			fanins = append(fanins, netlist.Fanin{From: gates[rng.Intn(i)], Weight: rng.Intn(4)})
		}
		gates = append(gates, c.AddGate("", logic.OrAll(len(fanins)), fanins...))
	}
	c.Nodes[first].Fanins[0] = netlist.Fanin{From: gates[n-1], Weight: 1 + rng.Intn(3)}
	for i := range gates {
		if rng.Intn(3) == 0 {
			g := c.Nodes[gates[i]]
			g.Fanins = append(g.Fanins, netlist.Fanin{From: gates[i+rng.Intn(n-i)], Weight: 1 + rng.Intn(3)})
			g.Func = logic.OrAll(len(g.Fanins))
		}
	}
	c.AddPO("o", gates[n-1], 0)
	c.InvalidateCaches()
	return c
}

// checkLoopW asserts D <= loopW[comp] - 2*Wmax <= Delta on every component
// of c, D being the exact weighted register diameter.
func checkLoopW(t *testing.T, c *netlist.Circuit) {
	t.Helper()
	an := analyze(c)
	diam, delta, wmax := exactLoopBounds(c, an)
	for comp, lw := range an.loopW {
		if d := lw - 2*wmax[comp]; d < diam[comp] || d > delta[comp] {
			t.Fatalf("%s component %d (%d members): loopW-2*Wmax = %d, want within [diameter %d, Delta %d]",
				c.Name, comp, len(an.members(comp)), d, diam[comp], delta[comp])
		}
	}
}

// TestLoopWBoundsRegisterDiameter: the structural part of TurboSYN's
// grounding margin lies between the exact weighted register diameter, which
// the proof in DESIGN.md ("PLD") needs it to bound, and Delta, the bound it
// replaced, on random strongly connected circuits and the quick suite. On a
// register ring the root bound ecc_in + ecc_out exceeds Delta, so the min
// keeps Delta there.
func TestLoopWBoundsRegisterDiameter(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		c := randomStronglyConnected(rng, 1+rng.Intn(40))
		if err := c.Check(); err != nil {
			t.Fatalf("random circuit %d: %v", i, err)
		}
		checkLoopW(t, c)
	}
	for _, cs := range bench.Suite() {
		if c := cs.Circuit; c.NumGates() <= 500 && c.NumFFs() <= 16 { // the -quick tables' suite
			checkLoopW(t, c)
		}
	}

	// Ring of 6 gates with one register per edge: Delta = 6, the diameter
	// is 5, and ecc_in + ecc_out = 10 from any root.
	ring := netlist.NewCircuit("register_ring")
	pi := ring.AddPI("a")
	first := ring.AddGate("", logic.AndAll(2), netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	prev := first
	for i := 1; i < 6; i++ {
		prev = ring.AddGate("", logic.AndAll(1), netlist.Fanin{From: prev, Weight: 1})
	}
	ring.Nodes[first].Fanins[1] = netlist.Fanin{From: prev, Weight: 1}
	ring.AddPO("o", prev, 0)
	ring.InvalidateCaches()
	checkLoopW(t, ring)
	an := analyze(ring)
	if lw := an.loopW[an.sccs.Comp[first]]; lw != 6+2 {
		t.Fatalf("register ring: loopW = %d, want Delta + 2*Wmax = 8", lw)
	}
}
