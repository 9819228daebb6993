package core

import (
	"fmt"
	"testing"

	"turbosyn/internal/decomp"
	"turbosyn/internal/retime"
)

// TestWarmStartMatchesCold is the correctness contract of the warm-started
// binary search: seeding probes from the labels of the nearest feasible
// probe must not change anything observable — the default Minimize returns
// the cold reference's minimized phi, converged labels, LUT count and
// byte-identical mapped netlist. Labels are monotone non-increasing in phi,
// so the seed lower-bounds the probe's fixpoint and the monotone iteration
// lands on the same fixpoint; this test pins that argument (and the cold
// final mapping pass) across the golden circuit matrix, sequentially and
// with parallel probes.
func TestWarmStartMatchesCold(t *testing.T) {
	sawWarmStart := false
	for _, tc := range goldenCases() {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if err := c.Check(); err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.K = tc.k
			opts.Decompose = tc.decompose
			if !c.IsKBounded(tc.k) {
				var err error
				if c, err = decomp.KBound(c, tc.k); err != nil {
					t.Fatal(err)
				}
			}
			cold := reference(t, c, opts)

			pools := []int{1, 4}
			if testing.Short() {
				pools = pools[:1]
			}
			for _, workers := range pools {
				opts.Workers = workers
				warm, err := Minimize(c, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if warm.Stats.WarmStarts > 0 {
					sawWarmStart = true
				}
				checkMatchesReference(t, fmt.Sprintf("workers=%d", workers), warm, cold)
			}
		})
	}
	if !sawWarmStart {
		t.Error("no golden search ever warm-started a probe; the seeding path is dead")
	}
}

// TestWarmStartReducesSweeps pins the point of warm-starting as a count: on
// a search deep enough to probe below its first feasible phi, the default
// (warm) Minimize must spend no more label iterations than the same search
// run cold, and must report the probes it seeded. The cold search is
// replayed probe by probe — the TurboMap upper-bound search over [1,
// Period], the TurboSYN search below it, the cold mapping pass — with every
// probe's verdict checked against the reference of its phase.
func TestWarmStartReducesSweeps(t *testing.T) {
	c := fsmCircuit(7, 8, 5)()
	opts := DefaultOptions()
	opts.Workers = 1
	if !c.IsKBounded(opts.K) {
		var err error
		if c, err = decomp.KBound(c, opts.K); err != nil {
			t.Fatal(err)
		}
	}
	ref := reference(t, c, opts)

	coldIters := 0
	search := func(ub int, opts Options) int {
		refPhi := reference(t, c, opts).Phi
		lo, hi := 1, ub
		for lo <= hi {
			mid := (lo + hi) / 2
			ok, s := coldProbe(t, c, mid, opts, false)
			if s.stats.WarmStarts != 0 {
				t.Fatalf("cold probe at phi %d reports %d warm starts", mid, s.stats.WarmStarts)
			}
			if ok != (mid >= refPhi) {
				t.Fatalf("cold probe at phi %d: feasible %v, reference phi %d", mid, ok, refPhi)
			}
			coldIters += s.stats.Iterations
			if ok {
				hi = mid - 1
			} else {
				lo = mid + 1
			}
		}
		return lo
	}
	tmOpts := opts
	tmOpts.Decompose = false
	ub := search(max(retime.Period(c), 1), tmOpts)
	if best := search(ub, opts); best != ref.Phi {
		t.Fatalf("cold search found phi %d, reference %d", best, ref.Phi)
	}
	coldIters += ref.Stats.Iterations // the mapping pass is cold on both sides

	warm, err := Minimize(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.WarmStarts == 0 {
		t.Fatal("warm search seeded no probe")
	}
	if warm.Stats.Iterations > coldIters {
		t.Errorf("warm search used %d iterations, cold only %d", warm.Stats.Iterations, coldIters)
	}
	checkMatchesReference(t, "warm search", warm, ref)
}
