package core

import (
	"bytes"
	"errors"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
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
			res, err := Minimize(cs.Circuit, opts)
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
// engine's per-component boundary is contained by the probe: the call
// returns an *InternalError of op "probe" instead of crashing, and the
// probe's arenas are poisoned rather than pooled.
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
	e, err := NewEngine(circuit, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// Plant a pooled state without completion flags: run() then panics
	// right after its first component, outside safeRunComp. Checkin keeps
	// the state shell, so every probe below checks the same one out.
	s := e.checkoutState(2, opts, &call{conc: &counters{}})
	s.compDoneBuf = nil
	e.checkinState(s)

	for _, tc := range []struct {
		name, phase string
		run         func() error
	}{
		{"Feasible", "probe", func() error { _, _, err := e.Feasible(2, opts); return err }},
		{"Minimize", "turbomap-ub", func() error { _, err := e.Minimize(opts); return err }},
	} {
		before := e.PoolStats().Discards
		err := tc.run()
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("%s: err = %v, want *InternalError", tc.name, err)
		}
		if ie.Op != "probe" || ie.Phase != tc.phase {
			t.Errorf("%s: op %q phase %q, want op %q phase %q", tc.name, ie.Op, ie.Phase, "probe", tc.phase)
		}
		if got := e.PoolStats().Discards - before; got != 1 {
			t.Errorf("%s: %d arenas discarded, want the probe's one", tc.name, got)
		}
	}
}
