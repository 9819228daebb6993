package turbosyn

import (
	"bytes"
	"testing"

	"turbosyn/internal/bench"
)

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
// byte-identical realized netlists, and the probe/map entry points agree
// with their package-level counterparts.
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
		res, err := eng.Synthesize()
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

	okWant, _, err := Feasible(c, want.Phi, opts)
	if err != nil {
		t.Fatal(err)
	}
	okGot, _, err := eng.Feasible(want.Phi)
	if err != nil {
		t.Fatal(err)
	}
	if okGot != okWant || !okGot {
		t.Fatalf("Feasible(%d): engine %v, one-shot %v", want.Phi, okGot, okWant)
	}
	mr, err := eng.Minimize()
	if err != nil {
		t.Fatal(err)
	}
	if mr.Phi != want.Phi {
		t.Fatalf("Minimize phi = %d, want %d", mr.Phi, want.Phi)
	}
	if _, err := eng.MapAtRatio(mr.Phi); err != nil {
		t.Fatalf("MapAtRatio(%d): %v", mr.Phi, err)
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
