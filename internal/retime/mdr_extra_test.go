package retime

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// TestSternBrocotFallbackAgreesWithPrimary: the exact fallback and the
// bisection-plus-verification primary path must return identical fractions.
func TestSternBrocotFallbackAgreesWithPrimary(t *testing.T) {
	for _, tc := range []struct{ k, w int }{{3, 2}, {7, 3}, {9, 4}, {11, 5}, {5, 1}} {
		c := ringForMDR(t, tc.k, tc.w)
		num, den := MaxCycleRatio(c)
		ctx := newSCCContext(c)
		fn, fd := ctx.sternBrocot(int64(totalDelay(c)), int64(tc.w))
		if num*fd != fn*den {
			t.Errorf("ring(%d,%d): primary %d/%d vs fallback %d/%d",
				tc.k, tc.w, num, den, fn, fd)
		}
	}
}

// ringForMDR builds the k-gate/w-register ring used across MDR tests.
func ringForMDR(t *testing.T, k, w int) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("ring")
	pi := c.AddPI("x")
	first := c.AddGate("r0", logic.AndAll(2),
		netlist.Fanin{From: pi}, netlist.Fanin{From: pi})
	prev := first
	for i := 1; i < k; i++ {
		prev = c.AddGate("", logic.Buf(), netlist.Fanin{From: prev})
	}
	c.Nodes[first].Fanins[1] = netlist.Fanin{From: prev, Weight: w}
	c.InvalidateCaches()
	c.AddPO("z", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestMDRRandomConsistency: on random circuits, ceil(MaxCycleRatio) must
// equal MaxCycleRatioCeil, and the critical-cycle verification must accept
// exactly the returned fraction.
func TestMDRRandomConsistency(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5+rng.Intn(25))
		if c.Check() != nil {
			continue
		}
		num, den := MaxCycleRatio(c)
		ceil := MaxCycleRatioCeil(c)
		if num == 0 {
			if ceil != 0 {
				t.Fatalf("seed %d: acyclic mismatch", seed)
			}
			continue
		}
		want := int((num + den - 1) / den)
		if ceil != want {
			t.Fatalf("seed %d: ceil %d vs fraction %d/%d", seed, ceil, num, den)
		}
		ctx := newSCCContext(c)
		if ctx.ratioAbove(num, den) {
			t.Fatalf("seed %d: some cycle exceeds the reported MDR %d/%d", seed, num, den)
		}
		if !ctx.hasCriticalCycle(num, den) {
			t.Fatalf("seed %d: reported MDR %d/%d not achieved by any cycle", seed, num, den)
		}
	}
}

// TestMDRInvariantUnderPipelining: inserting input-side registers changes no
// loop, so the MDR ratio is untouched (DESIGN.md invariant list).
func TestMDRInvariantUnderPipelining(t *testing.T) {
	for seed := int64(60); seed < 75; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5+rng.Intn(20))
		if c.Check() != nil {
			continue
		}
		// Pipeline the inputs: k more registers on every PI fanout edge.
		p := c.Clone()
		k := 1 + rng.Intn(3)
		for _, nd := range p.Nodes {
			for i, f := range nd.Fanins {
				if p.Nodes[f.From].Kind == netlist.PI {
					nd.Fanins[i].Weight += k
				}
			}
		}
		p.InvalidateCaches()
		n1, d1 := MaxCycleRatio(c)
		n2, d2 := MaxCycleRatio(p)
		if n1*d2 != n2*d1 {
			t.Fatalf("seed %d: MDR changed by pipelining: %d/%d -> %d/%d",
				seed, n1, d1, n2, d2)
		}
	}
}

// TestMDRBelowPeriod: ceil(MDR) never exceeds the current clock period.
func TestMDRBelowPeriod(t *testing.T) {
	for seed := int64(80); seed < 95; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomCircuit(rng, 5+rng.Intn(20))
		if c.Check() != nil {
			continue
		}
		if MaxCycleRatioCeil(c) > Period(c) {
			t.Fatalf("seed %d: MDR ceil %d > period %d", seed, MaxCycleRatioCeil(c), Period(c))
		}
	}
}
