package turbosyn

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"turbosyn/internal/bench"
)

// FlowSYN-s runs on the same Engine as the sequential algorithms, so every
// engine option reaches its island mapping. Each test below runs it on the
// obs bbara circuit with one option and checks that the option took effect.

func flowSYNS(t *testing.T, o Options) *Result {
	t.Helper()
	o.Algorithm = FlowSYNS
	res, err := Synthesize(obsCircuit(), o)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestFlowSYNSHonoursWorkers(t *testing.T) {
	if res := flowSYNS(t, Options{Workers: 1}); res.Stats.Workers != 1 {
		t.Fatalf("Stats.Workers = %d under Workers 1", res.Stats.Workers)
	}
}

func TestFlowSYNSTraceSpans(t *testing.T) {
	rec := NewTraceRecorder(0)
	res := flowSYNS(t, Options{Trace: rec})
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, res.RunID); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spans := map[string]int{}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			spans[ev.Name]++
		}
	}
	for _, want := range []string{"probe", "component"} {
		if spans[want] == 0 {
			t.Errorf("FlowSYN-s trace has no %q spans (spans: %v)", want, spans)
		}
	}
}

func TestFlowSYNSProgressCountsIterations(t *testing.T) {
	var mu sync.Mutex
	var last ProgressSnapshot
	res := flowSYNS(t, Options{Progress: func(s ProgressSnapshot) {
		mu.Lock()
		last = s
		mu.Unlock()
	}})
	if !last.Done || last.Iterations == 0 {
		t.Fatalf("final snapshot %+v: want Done with the island mapping's iterations", last)
	}
	if last.BestPhi != res.Phi {
		t.Errorf("final snapshot BestPhi = %d, result phi %d", last.BestPhi, res.Phi)
	}
}

func TestFlowSYNSStrictArenaBudget(t *testing.T) {
	_, err := Synthesize(obsCircuit(), Options{Algorithm: FlowSYNS, Strict: true, ArenaByteBudget: 1})
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("Strict FlowSYN-s with ArenaByteBudget 1: err = %v, want a *BudgetError", err)
	}
}

func TestFlowSYNSCacheDir(t *testing.T) {
	dir := t.TempDir()
	cold := flowSYNS(t, Options{CacheDir: dir})
	warm := flowSYNS(t, Options{CacheDir: dir})
	if warm.Stats.CachePersistedHits == 0 {
		t.Fatalf("second run on the same CacheDir served no persisted hits: %+v", warm.Stats)
	}
	if !bytes.Equal(blifString(t, warm.Realized), blifString(t, cold.Realized)) {
		t.Fatal("warm-cache FlowSYN-s BLIF differs from the cold run")
	}
}

// TestFlowSYNSHasNoDecision: FlowSYN-s computes its phi on the merged
// network, so it cannot answer "is phi feasible?"; the decision entry
// points say so instead of deciding another algorithm's question.
func TestFlowSYNSHasNoDecision(t *testing.T) {
	var s838 *Circuit
	for _, cs := range bench.Suite() {
		if cs.Name == "s838" {
			s838 = cs.Circuit
		}
	}
	o := Options{Algorithm: FlowSYNS, Workers: 1}
	if _, _, err := Feasible(s838, 10, o); err == nil || !strings.Contains(err.Error(), "FlowSYN-s") {
		t.Fatalf("Feasible(FlowSYN-s) err = %v, want an error naming FlowSYN-s", err)
	}
	e, err := NewEngine(s838, o)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if _, err := e.MapAtRatio(10); err == nil || !strings.Contains(err.Error(), "FlowSYN-s") {
		t.Fatalf("MapAtRatio(FlowSYN-s) err = %v, want an error naming FlowSYN-s", err)
	}
}
