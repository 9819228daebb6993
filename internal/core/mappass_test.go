package core

import (
	"context"
	"math/rand"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// TestMapPassIsOneProbe pins the mapping pass to one cold probe plus
// generation: at the minimum phi, MapAtRatioContext does exactly the label
// work of a cold FeasibleContext on the same engine.
func TestMapPassIsOneProbe(t *testing.T) {
	circuits := map[string]bool{"bbara": true, "keyb": true}
	opts := turboSYNOpts()
	opts.Workers = 1
	for _, cs := range bench.Suite() {
		if !circuits[cs.Name] {
			continue
		}
		best, err := Minimize(cs.Circuit, opts)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		e, err := NewEngine(cs.Circuit, opts)
		if err != nil {
			t.Fatal(err)
		}
		ok, probe, err := e.FeasibleContext(context.Background(), best.Phi, opts)
		if err != nil || !ok {
			t.Fatalf("%s: phi %d: feasible=%v err=%v", cs.Name, best.Phi, ok, err)
		}
		res, err := e.MapAtRatioContext(context.Background(), best.Phi, opts)
		e.Close()
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		type work struct {
			Iterations, CutChecks, CutWitnessHits, ExpandBuilds, DecompAttempts, SweepNodeVisits int
		}
		labelWork := func(st Stats) work {
			return work{st.Iterations, st.CutChecks, st.CutWitnessHits,
				st.ExpandBuilds, st.DecompAttempts, st.SweepNodeVisits}
		}
		if got, want := labelWork(res.Stats), labelWork(probe); got != want {
			t.Errorf("%s: mapping pass at phi %d did %+v, one probe does %+v",
				cs.Name, best.Phi, got, want)
		}
	}
}

// TestMapPreservesFeasibilityOnRandom maps random circuits end to end: the
// mapped network must realize the reported ratio and stay equivalent to
// the input under aligned simulation.
func TestMapPreservesFeasibilityOnRandom(t *testing.T) {
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
			t.Fatalf("seed %d: mapped ratio %d > phi %d", seed, got, res.Phi)
		}
		vecs := sim.RandomVectors(rng, 120, len(c.PIs))
		if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 10); err != nil {
			t.Fatalf("seed %d: diverges: %v", seed, err)
		}
	}
}
