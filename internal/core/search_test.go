package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// TestSearchProbesOnlyMidpoints: the binary search runs one probe per step,
// at the midpoint, whatever the worker count. Every worker count must launch
// the same probes, cancel none, and return the same phi, LUT count and
// mapped netlist. The circuits have upper bounds above 2, where a search
// that probed ahead of the midpoint would launch extra probes.
func TestSearchProbesOnlyMidpoints(t *testing.T) {
	circuits := map[string]bool{"bbara": true, "keyb": true, "s1423": true}
	if testing.Short() {
		circuits = map[string]bool{"bbara": true}
	}
	seen := 0
	for _, cs := range bench.Suite() {
		if !circuits[cs.Name] {
			continue
		}
		seen++
		var ref *Result
		for _, workers := range []int{1, 2, 4} {
			opts := DefaultOptions()
			opts.Workers = workers
			res, err := minimizeOnce(cs.Circuit, opts)
			if err != nil {
				t.Fatalf("%s/j%d: %v", cs.Name, workers, err)
			}
			if res.Stats.ProbesCancelled != 0 {
				t.Errorf("%s/j%d: ProbesCancelled = %d, want 0", cs.Name, workers, res.Stats.ProbesCancelled)
			}
			if ref == nil {
				ref = res
				continue
			}
			if res.Stats.ProbesLaunched != ref.Stats.ProbesLaunched {
				t.Errorf("%s/j%d: ProbesLaunched = %d, want %d as at j1",
					cs.Name, workers, res.Stats.ProbesLaunched, ref.Stats.ProbesLaunched)
			}
			if res.Phi != ref.Phi || res.LUTs != ref.LUTs {
				t.Errorf("%s/j%d: phi=%d luts=%d, want phi=%d luts=%d as at j1",
					cs.Name, workers, res.Phi, res.LUTs, ref.Phi, ref.LUTs)
			}
			if !bytes.Equal(blifBytes(t, res.Mapped), blifBytes(t, ref.Mapped)) {
				t.Errorf("%s/j%d: mapped BLIF differs from j1", cs.Name, workers)
			}
		}
	}
	if seen != len(circuits) {
		t.Fatalf("found %d of %d circuits in the suite", seen, len(circuits))
	}
}

// TestProbePanicBecomesInternalError: a panic that escapes the label
// engine's per-component boundary is contained where the state is used —
// by the search probe, by MapAtRatioContext's probe-and-generate step, or
// by the generation step that ends MinimizeContext. The call returns an
// *InternalError of op "probe" or "map" instead of crashing. A panic inside
// a run poisons the state's arena rather than pooling it; MinimizeContext's
// generation runs after the best probe's arenas are back in the pool, so
// that panic discards nothing and the engine's next run is bit-identical.
func TestProbePanicBecomesInternalError(t *testing.T) {
	fenceGoroutines(t)
	var circuit *netlist.Circuit
	for _, cs := range bench.Suite() {
		if cs.Name == "bbara" {
			circuit = cs.Circuit
		}
	}
	opts := DefaultOptions()
	opts.Workers = 1
	ctx := context.Background()
	want, err := minimizeOnce(circuit, opts)
	if err != nil {
		t.Fatal(err)
	}
	// cutPO, on entering the "map" phase, drops the first PO's fanin, so
	// generation panics indexing it after every search probe ran on the
	// intact circuit; the returned func restores the fanin.
	cutPO := func() (Options, func()) {
		po := circuit.Nodes[circuit.POs[0]]
		fanins := po.Fanins
		o := opts
		o.Progress = obs.NewProgress("plant", time.Hour, func(snap obs.Snapshot) {
			if snap.Phase == "map" {
				po.Fanins = nil
			}
		})
		return o, func() { po.Fanins = fanins }
	}
	for _, tc := range []struct {
		name, op, phase string
		discards        int
		run             func(e *Engine) error
	}{
		{"Feasible", "probe", "probe", 1, func(e *Engine) error {
			plantBrokenState(e, opts)
			_, _, err := e.FeasibleContext(ctx, 2, opts)
			return err
		}},
		{"Minimize", "probe", "turbomap-ub", 1, func(e *Engine) error {
			plantBrokenState(e, opts)
			_, err := e.MinimizeContext(ctx, opts)
			return err
		}},
		{"MapAtRatio", "map", "map", 1, func(e *Engine) error {
			plantBrokenState(e, opts)
			_, err := e.MapAtRatioContext(ctx, 2, opts)
			return err
		}},
		{"MinimizeMap", "map", "map", 0, func(e *Engine) error {
			o, restore := cutPO()
			defer restore()
			_, err := e.MinimizeContext(ctx, o)
			return err
		}},
	} {
		e, err := NewEngine(circuit, opts)
		if err != nil {
			t.Fatal(err)
		}
		err = tc.run(e)
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %v, want *InternalError", tc.name, err)
		}
		if ie.Op != tc.op || ie.Phase != tc.phase {
			t.Errorf("%s: op %q phase %q, want op %q phase %q", tc.name, ie.Op, ie.Phase, tc.op, tc.phase)
		}
		if got := e.PoolStats().Discards; got != tc.discards {
			t.Errorf("%s: %d arenas discarded, want %d", tc.name, got, tc.discards)
		}
		if tc.discards == 0 {
			res, err := e.MinimizeContext(ctx, opts)
			if err != nil {
				t.Fatalf("%s: next run: %v", tc.name, err)
			}
			if res.Phi != want.Phi || !bytes.Equal(blifBytes(t, res.Mapped), blifBytes(t, want.Mapped)) {
				t.Errorf("%s: next run (phi %d) differs from a fresh Minimize (phi %d)", tc.name, res.Phi, want.Phi)
			}
		}
		e.Close()
	}
}

// plantBrokenState parks a pooled state without its SCC decomposition on e:
// run() on it panics before its first component, outside safeRunComp.
// Checkin keeps the state shell, so every later checkout that pops it panics
// the same way.
func plantBrokenState(e *Engine, opts Options) {
	s := e.checkoutState(2, opts, &call{conc: &counters{}})
	s.sccs = nil
	e.checkinState(s)
}
