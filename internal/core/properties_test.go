package core

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// TestConvergedLabelInvariant: at convergence every gate's label lies in
// {L(v), L(v)+1} (a label outside that band would mean the fixpoint is
// inconsistent), and labels stay within the sound upper bound n+2.
func TestConvergedLabelInvariant(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 15+rng.Intn(20), 5)
		if c.Check() != nil {
			continue
		}
		for phi := 1; phi <= 4; phi++ {
			for _, opts := range []Options{turboMapOpts(), turboSYNOpts()} {
				s := newState(c, phi, opts)
				if ok, err := s.run(); err != nil || !ok {
					continue
				}
				for _, n := range c.Nodes {
					if n.Kind != netlist.Gate || len(n.Fanins) == 0 {
						continue
					}
					L := s.computeL(n.ID)
					l := s.labels[n.ID]
					lo, hi := L, L+1
					if lo < 1 {
						lo = 1
					}
					if hi < 1 {
						hi = 1 // labels never drop below the initial bound
					}
					if l < lo || l > hi {
						t.Fatalf("seed %d phi %d node %d: label %d outside [%d, %d]",
							seed, phi, n.ID, l, lo, hi)
					}
					if l > c.NumNodes()+2 {
						t.Fatalf("seed %d: label %d beyond sound bound", seed, l)
					}
				}
			}
		}
	}
}

// TestTurboSYNNeverWorseThanTurboMapQuick: decomposition only enlarges the
// solution space.
func TestTurboSYNNeverWorseThanTurboMapQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	for seed := int64(50); seed < 70; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 10+rng.Intn(25), 5)
		if c.Check() != nil {
			continue
		}
		for phi := 1; phi <= 4; phi++ {
			okTM, _, err := feasibleOnce(c, phi, turboMapOpts())
			if err != nil {
				t.Fatal(err)
			}
			okTS, _, err := feasibleOnce(c, phi, turboSYNOpts())
			if err != nil {
				t.Fatal(err)
			}
			if okTM && !okTS {
				t.Fatalf("seed %d phi %d: TurboMap feasible but TurboSYN not", seed, phi)
			}
		}
	}
}

// TestNonPipelinedRespectsOutputs: the clock-period objective must reject
// targets whose critical I/O path cannot be met, while the ratio objective
// accepts them.
func TestNonPipelinedRespectsOutputs(t *testing.T) {
	// 8 chained 2-input ANDs with fresh PIs: period 8 at K=2 collapses to
	// LUT depth 7 (each LUT eats one gate + its PI)... compute both
	// objectives and check the ordering instead of absolute values.
	c := netlist.NewCircuit("iochain")
	prev := c.AddPI("p0")
	g := -1
	for i := 1; i <= 8; i++ {
		pi := c.AddPI(string(rune('a' + i)))
		src := netlist.Fanin{From: prev}
		if g >= 0 {
			src = netlist.Fanin{From: g}
		}
		g = c.AddGate("", logic.AndAll(2), src, netlist.Fanin{From: pi})
	}
	c.AddPO("z", g, 0)
	opts := turboMapOpts()
	opts.K = 3
	opts.Pipelined = false
	period, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.Pipelined = true
	ratio, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ratio.Phi != 1 {
		t.Fatalf("acyclic circuit must have ratio 1 (pipelining), got %d", ratio.Phi)
	}
	if period.Phi <= ratio.Phi {
		t.Fatalf("clock-period objective (%d) must exceed the loop bound (%d) on an I/O chain",
			period.Phi, ratio.Phi)
	}
	// And the non-pipelined mapping must honor the PO condition.
	ok, _, err := feasibleOnce(c, period.Phi-1, opts2NonPipelined(opts))
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("one below the optimum must be infeasible")
	}
}

func opts2NonPipelined(o Options) Options {
	o.Pipelined = false
	return o
}

// TestMaxExpandConservative: tiny expansion caps may worsen phi but never
// produce invalid results.
func TestMaxExpandConservative(t *testing.T) {
	c := loop6(t)
	small := turboSYNOpts()
	small.MaxExpand = 12 // absurdly small
	res, err := minimizeOnce(c, small)
	if err != nil {
		t.Fatal(err)
	}
	full, err := minimizeOnce(c, turboSYNOpts())
	if err != nil {
		t.Fatal(err)
	}
	if res.Phi < full.Phi {
		t.Fatalf("capped expansion cannot beat the full one: %d < %d", res.Phi, full.Phi)
	}
	if err := res.Mapped.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestLowDepthMonotoneStructural: for the structural algorithm (TurboMap),
// deeper candidate expansion only adds cuts, so phi is non-increasing in
// LowDepth. (With decomposition the min cut itself changes and the property
// need not hold pointwise, so TurboSYN is excluded.)
func TestLowDepthMonotoneStructural(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	for seed := int64(100); seed < 112; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 20+rng.Intn(20), 5)
		if c.Check() != nil {
			continue
		}
		prevPhi := 1 << 20
		for _, low := range []int{-1, 3, 6} { // increasing expansion depth
			o := turboMapOpts()
			o.LowDepth = low
			res, err := minimizeOnce(c, o)
			if err != nil {
				t.Fatal(err)
			}
			if res.Phi > prevPhi {
				t.Fatalf("seed %d: LowDepth=%d worsened phi: %d > %d",
					seed, low, res.Phi, prevPhi)
			}
			prevPhi = res.Phi
		}
	}
}
