package obs

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRingWrapKeepsTail(t *testing.T) {
	rec := NewRecorder(4)
	ring := rec.NewRing("w")
	for i := int64(0); i < 10; i++ {
		ring.Instant(OpCacheHit, i, -1)
	}
	evs := ring.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want ring capacity 4", len(evs))
	}
	for i, ev := range evs {
		if want := int64(6 + i); ev.A != want {
			t.Fatalf("event %d has A=%d, want %d (oldest-first tail)", i, ev.A, want)
		}
	}
	events, dropped := rec.Totals()
	if events != 10 || dropped != 6 {
		t.Fatalf("totals = %d/%d, want 10 recorded / 6 dropped", events, dropped)
	}
}

func TestRingPhaseSpans(t *testing.T) {
	rec := NewRecorder(0)
	ring := rec.NewRing("w")
	ring.Phase(OpExpand, 7)
	ring.Phase(OpExpand, 8) // same op: no event, span stays open
	ring.Phase(OpFlow, 7)   // closes expand, opens flow
	ring.ClosePhase()       // closes flow, opens nothing
	ring.ClosePhase()       // idempotent
	evs := ring.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2 (expand, flow)", len(evs))
	}
	if evs[0].Op != OpExpand || evs[0].A != 7 || evs[1].Op != OpFlow {
		t.Fatalf("spans = %+v", evs)
	}
	for _, ev := range evs {
		if ev.Kind != kindSpan || ev.End < ev.Begin {
			t.Fatalf("malformed span %+v", ev)
		}
	}
}

func TestWriteTraceSchema(t *testing.T) {
	rec := NewRecorder(0)
	ring := rec.NewRing("worker 0")
	t0 := ring.Now()
	ring.Span(OpProbe, t0, 3, 1)
	ring.Instant(OpDegrade, 42, 100)
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, "run-1"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// process_name + thread_name metadata, then the two events.
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(doc.TraceEvents))
	}
	probe := doc.TraceEvents[2]
	if probe["name"] != "probe" || probe["ph"] != "X" {
		t.Fatalf("probe event = %v", probe)
	}
	if _, ok := probe["dur"]; !ok {
		t.Fatal("complete span without dur")
	}
	if args := probe["args"].(map[string]any); args["phi"] != 3.0 || args["feasible"] != true {
		t.Fatalf("probe args = %v", args)
	}
	if inst := doc.TraceEvents[3]; inst["ph"] != "i" || inst["s"] != "t" {
		t.Fatalf("instant event = %v", inst)
	}
	if doc.OtherData["runID"] != "run-1" || doc.OtherData["tool"] != "turbosyn" {
		t.Fatalf("otherData = %v", doc.OtherData)
	}
}

func TestProgressFinishDeliversOnce(t *testing.T) {
	var dones atomic.Int64
	var last atomic.Pointer[Snapshot]
	p := NewProgress("r", time.Hour, func(s Snapshot) {
		if s.Done {
			dones.Add(1)
		}
		last.Store(&s)
	})
	p.Start()
	p.SetPhase("search")
	p.SetBestPhi(4)
	p.SetSampler(func() Counters { return Counters{Iterations: 9} })
	final := p.Finish("boom")
	p.Finish("boom again") // idempotent: no second delivery
	p.SetPhase("late")     // post-finish mutations must not emit
	if got := dones.Load(); got != 1 {
		t.Fatalf("Done delivered %d times, want exactly once", got)
	}
	s := last.Load()
	if !s.Done || s.Err != "boom" || s.Phase != "search" || s.BestPhi != 4 || s.Iterations != 9 {
		t.Fatalf("final snapshot = %+v", s)
	}
	if final.Err != "boom" || !final.Done {
		t.Fatalf("Finish return = %+v", final)
	}
}

func TestNilProgressIsSafe(t *testing.T) {
	var p *Progress
	p.SetPhase("x")
	p.SetBestPhi(1)
	p.SetSampler(func() Counters { return Counters{} })
	p.Start()
	if s := p.Finish(""); s != (Snapshot{}) {
		t.Fatalf("nil Finish = %+v", s)
	}
}

func TestMetricsPrometheusText(t *testing.T) {
	m := &Metrics{}
	m.Update(Snapshot{RunID: "r1", Phase: "search", BestPhi: 3,
		Counters: Counters{Iterations: 12, Workers: 4}})
	w := httptest.NewRecorder()
	m.ServeHTTP(w, httptest.NewRequest("GET", "/metrics", nil))
	body := w.Body.String()
	for _, want := range []string{
		"turbosyn_iterations_total 12",
		"turbosyn_best_phi 3",
		`turbosyn_run_info{run_id="r1",phase="search"} 1`,
		"# TYPE turbosyn_workers gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics output lacks %q:\n%s", want, body)
		}
	}
}

// TestPublishExpvarIdempotent pins the fix for the expvar name-collision
// hazard: expvar.Publish panics on a duplicate name, so a daemon hosting
// many engine runs (or a test constructing several Metrics) used to crash
// on the second registration. PublishExpvar must tolerate any number of
// publishes — same name or run-id-scoped names — with last-writer-wins
// reads and releases that never tear down a newer publication.
func TestPublishExpvarIdempotent(t *testing.T) {
	// Same name, many publishers: no panic, last writer wins.
	var rel []func()
	for i := 0; i < 5; i++ {
		m := &Metrics{}
		m.Update(Snapshot{RunID: fmt.Sprintf("run-%d", i)})
		rel = append(rel, m.PublishExpvar())
	}
	v := expvar.Get("turbosyn")
	if v == nil {
		t.Fatal("turbosyn not in the expvar registry")
	}
	if !strings.Contains(v.String(), "run-4") {
		t.Fatalf("expvar reads %s, want the last publisher (run-4)", v.String())
	}
	// A stale release must not tear down the live publication...
	rel[0]()
	if !strings.Contains(expvar.Get("turbosyn").String(), "run-4") {
		t.Fatal("stale release tore down the live publication")
	}
	// ...while the live one's release detaches it (value reads null).
	rel[4]()
	if s := expvar.Get("turbosyn").String(); !strings.Contains(s, "null") {
		t.Fatalf("released expvar reads %s, want null", s)
	}

	// Run-id-scoped names coexist: concurrent runs never clobber each other.
	a, b := &Metrics{}, &Metrics{}
	a.Update(Snapshot{RunID: "job-a"})
	b.Update(Snapshot{RunID: "job-b"})
	relA := PublishExpvar("turbosyn.job-a", a.Expvar)
	relB := PublishExpvar("turbosyn.job-b", b.Expvar)
	defer relA()
	defer relB()
	if !strings.Contains(expvar.Get("turbosyn.job-a").String(), "job-a") ||
		!strings.Contains(expvar.Get("turbosyn.job-b").String(), "job-b") {
		t.Fatal("run-id-scoped publications clobbered each other")
	}
	// Re-publishing a released name revives it.
	c := &Metrics{}
	c.Update(Snapshot{RunID: "revived"})
	defer c.PublishExpvar()()
	if !strings.Contains(expvar.Get("turbosyn").String(), "revived") {
		t.Fatal("re-publish after release did not revive the name")
	}
}
