package core

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// loop6PlusTail: the loop6 circuit with an additional wide AND tail hanging
// off the loop. The tail's cone is wide (forcing decomposition when its
// label is tight) but lies on no loop, so relaxation can legally push its
// label up and keep a single structural LUT.
func loop6PlusTail(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := loop6(t)
	g6 := c.IDByName("g6")
	prev := g6
	ids := make([]int, 0, 8)
	for i := 0; i < 7; i++ {
		pi := c.AddPI("t" + string(rune('0'+i)))
		prev = c.AddGate("tail"+string(rune('0'+i)), logic.AndAll(2),
			netlist.Fanin{From: prev}, netlist.Fanin{From: pi})
		ids = append(ids, prev)
	}
	c.AddPO("tz", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRelaxReducesArea(t *testing.T) {
	c := loop6PlusTail(t)
	opts := turboSYNOpts()
	// The unrelaxed baseline is the mapping pass without relaxForArea: the
	// probe, then generation straight from its covers.
	s := newState(c, 1, opts)
	if ok, err := s.run(); err != nil || !ok {
		t.Fatalf("phi=1 should be feasible (ok=%v err=%v)", ok, err)
	}
	m, origOf, err := s.generate()
	if err != nil {
		t.Fatal(err)
	}
	a := &Result{Phi: 1, Mapped: m, LUTs: m.NumGates(), OrigOf: origOf}
	b, err := mapOnce(c, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	if b.LUTs > a.LUTs {
		t.Fatalf("relaxation increased area: %d -> %d", a.LUTs, b.LUTs)
	}
	// Both must still realize phi=1 and stay equivalent.
	for name, res := range map[string]*Result{"norelax": a, "relax": b} {
		if got := retime.MaxCycleRatioCeil(res.Mapped); got > 1 {
			t.Fatalf("%s: ratio %d > 1", name, got)
		}
		rng := rand.New(rand.NewSource(11))
		vecs := sim.RandomVectors(rng, 200, len(c.PIs))
		if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 10); err != nil {
			t.Fatalf("%s diverges: %v", name, err)
		}
	}
	t.Logf("LUTs without relaxation: %d, with: %d", a.LUTs, b.LUTs)
}

func TestRelaxPreservesFeasibilityOnRandom(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	for seed := int64(200); seed < 215; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 15+rng.Intn(25), 5)
		if c.Check() != nil {
			continue
		}
		res, err := Minimize(c, turboSYNOpts())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := retime.MaxCycleRatioCeil(res.Mapped); got > res.Phi {
			t.Fatalf("seed %d: relaxation broke the ratio: %d > %d", seed, got, res.Phi)
		}
		vecs := sim.RandomVectors(rng, 120, len(c.PIs))
		if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 10); err != nil {
			t.Fatalf("seed %d: diverges: %v", seed, err)
		}
	}
}
