package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/decomp"
	"turbosyn/internal/faultinject"
	"turbosyn/internal/netlist"
)

// suiteCases are the quick benchmark-suite circuits (FSM SOPs plus a
// datapath carry chain, the slice the warm-cache gate also runs), as golden
// cases under the TurboSYN defaults.
func suiteCases() []goldenCase {
	quick := map[string]bool{"bbara": true, "bbsse": true, "cse": true, "s420": true}
	var cases []goldenCase
	for _, cs := range bench.Suite() {
		if quick[cs.Name] {
			c := cs.Circuit
			cases = append(cases, goldenCase{cs.Name, 5, true, func() *netlist.Circuit { return c }})
		}
	}
	return cases
}

// TestWorklistMatchesFullSweep is the determinism contract of the dirty-set
// worklist: it skips exactly the member visits that full sweeps would have
// elided as decision-cache no-ops, so for every circuit and worker count the
// default Minimize — warm-started, worklist on — must return the reference
// result (sequential, full sweeps, cold; see reference): same phi, same
// converged labels, same LUT count, byte-identical mapped netlist. On the
// benchmark-suite circuits the worklist must also report the visits it
// elided.
//
// At probe level the claim is sharper. A cold sequential probe follows the
// full-sweep trajectory step for step, so on every probe of the reference
// scan the verdict, the labels and every work counter must match, and the
// visits the worklist made plus the ones it skipped must add up to the
// reference's visits. Likewise for expansions: the worklist probe answers
// some fast-pass cut checks from cut witnesses, so its builds plus its
// witness hits must add up to the flow-only reference's builds.
func TestWorklistMatchesFullSweep(t *testing.T) {
	fenceGoroutines(t)
	workerPools := identityWorkerPools()
	cases := goldenCases()
	golden := len(cases)
	if testing.Short() {
		// The race CI job runs -short: keep one decomposing FSM, the
		// mapping-only FSM and the cheap LFSR on two worker pools.
		workerPools = []int{1, 8}
		cases = []goldenCase{cases[0], cases[3], cases[5]}
	} else {
		cases = append(cases, suiteCases()...)
	}
	for i, tc := range cases {
		suite := i >= golden
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build()
			if !c.IsKBounded(tc.k) {
				var err error
				if c, err = decomp.KBound(c, tc.k); err != nil {
					t.Fatal(err)
				}
			}
			opts := DefaultOptions()
			opts.K = tc.k
			opts.Decompose = tc.decompose
			want := reference(t, c, opts)

			for _, workers := range workerPools {
				opts.Workers = workers
				got, err := Minimize(c, opts)
				if err != nil {
					t.Fatalf("j%d: %v", workers, err)
				}
				checkMatchesReference(t, fmt.Sprintf("j%d", workers), got, want)
				if suite && got.Stats.DirtySkips == 0 {
					t.Errorf("j%d: the worklist elided no visits", workers)
				}
			}

			for phi := 1; phi <= want.Phi; phi++ {
				refOK, ref := coldProbe(t, c, phi, opts, true)
				gotOK, got := coldProbe(t, c, phi, opts, false)
				if gotOK != refOK || refOK != (phi == want.Phi) {
					t.Fatalf("phi=%d: worklist verdict %v, full sweep %v, reference phi %d",
						phi, gotOK, refOK, want.Phi)
				}
				for id := range ref.labels {
					if got.labels[id] != ref.labels[id] {
						t.Fatalf("phi=%d: label[%d] = %d, full sweep %d",
							phi, id, got.labels[id], ref.labels[id])
					}
				}
				if ref.stats.DirtySkips != 0 {
					t.Fatalf("phi=%d: full sweeps reported %d dirty skips", phi, ref.stats.DirtySkips)
				}
				for _, cnt := range []struct {
					name      string
					got, want int
				}{
					{"Iterations", got.stats.Iterations, ref.stats.Iterations},
					{"CutChecks", got.stats.CutChecks, ref.stats.CutChecks},
					// Every witness hit replaces exactly one build, and the
					// flow-only reference never consults a witness.
					{"ExpandBuilds+CutWitnessHits", got.stats.ExpandBuilds + got.stats.CutWitnessHits, ref.stats.ExpandBuilds},
					{"reference CutWitnessHits", ref.stats.CutWitnessHits, 0},
					{"ExpandReuses", got.stats.ExpandReuses, ref.stats.ExpandReuses},
					{"Decompositions", got.stats.Decompositions, ref.stats.Decompositions},
					{"DecompAttempts", got.stats.DecompAttempts, ref.stats.DecompAttempts},
					{"PLDChecks", got.stats.PLDChecks, ref.stats.PLDChecks},
					{"PLDHits", got.stats.PLDHits, ref.stats.PLDHits},
				} {
					if cnt.got != cnt.want {
						t.Errorf("phi=%d: %s = %d, full sweep %d", phi, cnt.name, cnt.got, cnt.want)
					}
				}
				if got.stats.SweepNodeVisits+got.stats.DirtySkips != ref.stats.SweepNodeVisits {
					t.Errorf("phi=%d: visits %d + skips %d != full-sweep visits %d",
						phi, got.stats.SweepNodeVisits, got.stats.DirtySkips, ref.stats.SweepNodeVisits)
				}
			}
		})
	}
}

// TestWorklistAvoidsWork pins the perf claim behind the worklist: on the
// warm-started binary search (the default Minimize path) the dirty-set drain
// must elide a nonzero number of member visits and record a worklist
// high-water mark, without moving the result off the reference; and a cold
// probe at the optimum must visit strictly fewer members than full sweeps.
func TestWorklistAvoidsWork(t *testing.T) {
	fenceGoroutines(t)
	c := faultCircuit(t)
	opts := DefaultOptions()
	opts.Workers = 1
	want := reference(t, c, opts)
	got, err := Minimize(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.DirtySkips == 0 {
		t.Error("worklist elided no visits on the warm search")
	}
	if got.Stats.WorklistPeak <= 0 {
		t.Errorf("WorklistPeak = %d, want > 0", got.Stats.WorklistPeak)
	}
	checkMatchesReference(t, "j1", got, want)

	_, full := coldProbe(t, c, want.Phi, opts, true)
	_, drained := coldProbe(t, c, want.Phi, opts, false)
	if drained.stats.SweepNodeVisits >= full.stats.SweepNodeVisits {
		t.Errorf("worklist visits %d not below full-sweep visits %d",
			drained.stats.SweepNodeVisits, full.stats.SweepNodeVisits)
	}
}

// TestInjectedPanicWorklistWarmRecovers: a contained panic mid-probe leaves
// per-probe dirty bits and warm pre-decided labels behind on states that go
// back to the engine's pool. The next run on the same engine must reconcile
// or reset all of it — completing bit-identically to the reference, with the
// interrupted run's arenas poisoned (Discards > 0).
func TestInjectedPanicWorklistWarmRecovers(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by make chaos (-count 2, no -short); trimmed from the -short race budget")
	}
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			want := reference(t, c, opts)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			plan, off := faultinject.Activate(faultinject.Config{PanicAtCutCheck: 50})
			res, err := e.MinimizeContext(context.Background(), opts)
			off()
			if plan.Fired(faultinject.KindPanicCutCheck) == 0 {
				t.Fatalf("fault never fired (only %d cut checks)",
					plan.Hits(faultinject.KindPanicCutCheck))
			}
			if err == nil || res != nil {
				t.Fatalf("contained panic must surface as an error (err=%v res=%v)", err, res)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error is not an *InternalError: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("panicked run poisoned no arenas: %+v", ps)
			}

			res, err = e.MinimizeContext(context.Background(), opts)
			if err != nil {
				t.Fatalf("engine did not recover after a contained panic: %v", err)
			}
			checkMatchesReference(t, "post-panic run", res, want)
		})
	}
}

// TestInjectedCancelWorklistMidDrain: cancellation from a sweep checkpoint
// aborts a fast pass mid-drain, stranding half-cleared dirty bits. The
// engine must poison the interrupted checkouts and the next run must drain
// to the reference's fixpoint.
func TestInjectedCancelWorklistMidDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("covered by make chaos (-count 2, no -short); trimmed from the -short race budget")
	}
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			want := reference(t, c, opts)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			ctx, cancel := context.WithCancel(context.Background())
			plan, off := faultinject.Activate(faultinject.Config{
				CancelAtSweep: 3, OnCancel: cancel,
			})
			res, err := e.MinimizeContext(ctx, opts)
			off()
			cancel()
			if plan.Fired(faultinject.KindCancelSweep) == 0 {
				t.Fatalf("cancel point never fired (only %d sweeps)",
					plan.Hits(faultinject.KindCancelSweep))
			}
			if err == nil || res != nil {
				t.Fatalf("cancelled run must surface an error (err=%v res=%v)", err, res)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("cancelled run poisoned no arenas: %+v", ps)
			}

			res, err = e.MinimizeContext(context.Background(), opts)
			if err != nil {
				t.Fatalf("engine did not recover after cancellation: %v", err)
			}
			checkMatchesReference(t, "post-cancel run", res, want)
		})
	}
}
