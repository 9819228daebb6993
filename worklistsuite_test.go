package turbosyn

import (
	"bytes"
	"testing"

	"turbosyn/internal/bench"
)

// TestWorklistSuiteBitIdentical runs the quick suite slice (the same four
// circuits as the cache-warm gate: FSM SOPs plus a datapath carry chain)
// through Synthesize — binary search, dirty-set worklist, dataflow
// scheduler — on the sequential path (Workers 1) and on a parallel pool, and
// requires byte-identical realized BLIF, phi and LUT counts per circuit.
// The phi must also be the one an upward scan of cold single probes reaches
// first, and both runs must report the visits the worklist
// elided. This is the end-to-end face of the invariant
// TestWorklistMatchesFullSweep pins inside internal/core against the
// full-sweep reference: the worklist skips only visits that full sweeps
// would have elided as decision-cache no-ops.
func TestWorklistSuiteBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("two full syntheses per circuit; run via make test-full")
	}
	quick := map[string]bool{"bbara": true, "bbsse": true, "cse": true, "s420": true}
	for _, cs := range bench.Suite() {
		if !quick[cs.Name] {
			continue
		}
		t.Run(cs.Name, func(t *testing.T) {
			run := func(workers int) ([]byte, *Result) {
				res, err := Synthesize(cs.Circuit, Options{K: 5, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				if err := WriteBLIF(&buf, res.Realized); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes(), res
			}
			seqBLIF, seq := run(1)
			parBLIF, par := run(4)
			if seq.Phi != par.Phi || seq.LUTs != par.LUTs {
				t.Fatalf("worker pool changed the result: phi %d/%d, LUTs %d/%d",
					seq.Phi, par.Phi, seq.LUTs, par.LUTs)
			}
			if !bytes.Equal(seqBLIF, parBLIF) {
				t.Error("parallel run's realized BLIF differs from the sequential run")
			}
			e, err := NewEngine(cs.Circuit, Options{K: 5, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for phi := 1; phi <= seq.Phi; phi++ {
				ok, _, err := feasible(e, phi)
				if err != nil {
					t.Fatalf("phi=%d: %v", phi, err)
				}
				if ok != (phi == seq.Phi) {
					t.Fatalf("cold probe at phi=%d says %v, Synthesize found phi %d", phi, ok, seq.Phi)
				}
			}
			if seq.Stats.DirtySkips == 0 || par.Stats.DirtySkips == 0 {
				t.Errorf("worklist elided no visits: %d sequential, %d parallel",
					seq.Stats.DirtySkips, par.Stats.DirtySkips)
			}
		})
	}
}
