package turbosyn

import (
	"bytes"
	"context"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/core"
)

// feasible decides the paper's Problem 2 at phi on e's circuit: one probe of
// the core engine e wraps, under the core options e lowers its Options into.
// The public API answers Problem 1 only; this is the decision step its
// binary search runs.
func feasible(e *Engine, phi int) (bool, core.Stats, error) {
	return e.core.FeasibleContext(context.Background(), phi, e.opts.coreOptions(nil, e.opts.Logger))
}

func blifString(t *testing.T, c *Circuit) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBLIF(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineFacade pins a reused Engine against the package-level
// Synthesize, which builds a fresh engine per call: repeated runs on one
// engine reuse its analysis, cache and arena pool and still produce
// byte-identical realized netlists, and a probe on the reused engine decides
// the optimum and the phi below it as a fresh engine does.
func TestEngineFacade(t *testing.T) {
	c := bench.ScaleFSM("TestEngineFacade", 7, 4)
	opts := Options{K: 5}
	want, err := Synthesize(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantBLIF := blifString(t, want.Realized)

	eng, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for run := 1; run <= 3; run++ {
		res, err := eng.SynthesizeContext(context.Background())
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if res.Phi != want.Phi || res.LUTs != want.LUTs {
			t.Fatalf("run %d diverged: phi %d/%d, LUTs %d/%d",
				run, res.Phi, want.Phi, res.LUTs, want.LUTs)
		}
		if !bytes.Equal(blifString(t, res.Realized), wantBLIF) {
			t.Fatalf("run %d: realized netlist diverged from package-level Synthesize", run)
		}
		if !bytes.Equal(blifString(t, res.Mapped), blifString(t, want.Mapped)) {
			t.Fatalf("run %d: mapped netlist diverged from package-level Synthesize", run)
		}
	}
	if ps := eng.PoolStats(); ps.Reuses == 0 {
		t.Error("three engine runs never reused a pooled arena")
	}

	fresh, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	for phi := max(want.Phi-1, 1); phi <= want.Phi; phi++ {
		okWant, _, err := feasible(fresh, phi)
		if err != nil {
			t.Fatal(err)
		}
		okGot, _, err := feasible(eng, phi)
		if err != nil {
			t.Fatal(err)
		}
		if okGot != okWant || okGot != (phi == want.Phi) {
			t.Fatalf("phi %d: reused engine says %v, fresh engine %v, Synthesize found %d",
				phi, okGot, okWant, want.Phi)
		}
	}
}

// TestEngineValidates: constructor surfaces option and circuit errors.
func TestEngineValidates(t *testing.T) {
	c := bench.ScaleFSM("TestEngineValidates", 6, 4)
	if _, err := NewEngine(c, Options{K: 1}); err == nil {
		t.Fatal("NewEngine accepted K=1")
	}
	if _, err := NewEngine(c, Options{Workers: -1}); err == nil {
		t.Fatal("NewEngine accepted negative Workers")
	}
}
