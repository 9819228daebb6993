package core

import (
	"context"
	"math/rand"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// labelWork is the label-computation work of a run: the counters a probe's
// sweeps, cut checks and decompositions accumulate.
type labelWork struct {
	Iterations, CutChecks, CutWitnessHits, ExpandBuilds, DecompAttempts, SweepNodeVisits int
}

func labelWorkOf(st Stats) labelWork {
	return labelWork{st.Iterations, st.CutChecks, st.CutWitnessHits,
		st.ExpandBuilds, st.DecompAttempts, st.SweepNodeVisits}
}

// TestMinimizeIsItsProbes pins Minimize to exactly the work of its search
// probes: every probe is cold and the mapping comes from the best probe's
// state, so replaying the same bisection with cold FeasibleContext calls on
// one engine — the TurboMap upper-bound search over [1, Period], then the
// TurboSYN search below its result — must sum to Minimize's label work and
// count its probes.
func TestMinimizeIsItsProbes(t *testing.T) {
	circuits := map[string]bool{"bbara": true, "keyb": true, "s420": true}
	opts := turboSYNOpts()
	opts.Workers = 1
	seen := 0
	for _, cs := range bench.Suite() {
		if !circuits[cs.Name] {
			continue
		}
		seen++
		res, err := minimizeOnce(cs.Circuit, opts)
		if err != nil {
			t.Fatalf("%s: %v", cs.Name, err)
		}
		e, err := NewEngine(cs.Circuit, opts)
		if err != nil {
			t.Fatal(err)
		}
		var sum Stats
		probes := 0
		search := func(ub int, opts Options) int {
			best := -1
			for lo, hi := 1, ub; lo <= hi; {
				mid := (lo + hi) / 2
				ok, st, err := e.FeasibleContext(context.Background(), mid, opts)
				if err != nil {
					t.Fatalf("%s: phi %d: %v", cs.Name, mid, err)
				}
				probes++
				sum.Add(st)
				if ok {
					best, hi = mid, mid-1
				} else {
					lo = mid + 1
				}
			}
			return best
		}
		tmOpts := opts
		tmOpts.Decompose = false
		ub := search(max(retime.Period(cs.Circuit), 1), tmOpts)
		best := search(ub, opts)
		e.Close()
		if best != res.Phi {
			t.Errorf("%s: replayed search found phi %d, Minimize %d", cs.Name, best, res.Phi)
		}
		if got, want := labelWorkOf(res.Stats), labelWorkOf(sum); got != want {
			t.Errorf("%s: Minimize did %+v, its %d probes %+v", cs.Name, got, probes, want)
		}
		if res.Stats.ProbesLaunched != probes {
			t.Errorf("%s: Minimize launched %d probes, the search needs %d",
				cs.Name, res.Stats.ProbesLaunched, probes)
		}
	}
	if seen != len(circuits) {
		t.Fatalf("found %d of %d circuits in the suite", seen, len(circuits))
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
		res, err := minimizeOnce(c, turboSYNOpts())
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
