package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"turbosyn"
	"turbosyn/internal/jobqueue"
	"turbosyn/internal/netlist"
)

// quickBLIF is a 2-LUT sequential circuit that synthesizes in milliseconds.
const quickBLIF = ".model m\n.inputs a\n.outputs z\n.latch n q 0\n.names a q n\n11 1\n.names q z\n1 1\n.end\n"

// badBLIF references an undefined signal: accepted, then failed typed
// KindInvalid.
const badBLIF = ".model m\n.inputs a\n.outputs z\n.names b z\n1 1\n.end\n"

func quickSpec(tenant string) JobSpec {
	return JobSpec{Tenant: tenant, BLIF: quickBLIF}
}

func testServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.JournalDir == "" {
		cfg.JournalDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestDaemonSmoke is the end-to-end HTTP smoke: a mixed batch of quick jobs
// from three tenants — including one malformed BLIF and one over-quota
// tenant — all reach terminal states, the failure carries the typed invalid
// kind, the quota rejection answers 429 + Retry-After, and the drain leaves
// accepted == done + failed + shed with nothing dangling.
func TestDaemonSmoke(t *testing.T) {
	s := testServer(t, Config{
		Fleet: 2,
		Queue: jobqueue.Config{Capacity: 32, PerTenant: 2},
	})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	ctx := context.Background()

	cl := NewClient(ts.URL, "")
	cl.MaxAttempts = 1 // assert admission outcomes, not retried ones

	var ids []string
	for _, spec := range []JobSpec{
		quickSpec("acme"),
		quickSpec("acme"),
		quickSpec("globex"),
		{Tenant: "globex", BLIF: badBLIF},
		{Tenant: "initech", Generator: &GeneratorSpec{Kind: "fsm", Seed: 7, StateBits: 3, Inputs: 2, Outputs: 2, Cubes: 4, Span: 3}},
	} {
		id, err := cl.Submit(ctx, spec)
		if err != nil {
			t.Fatalf("submit %+v: %v", spec, err)
		}
		ids = append(ids, id)
	}

	// Over-quota tenant: acme already has 2 in flight (PerTenant=2), so a
	// third burst submission must shed with 429 + Retry-After. Race window:
	// workers may finish acme's jobs first, so tolerate an accept — but when
	// rejected, the response shape is pinned.
	body, _ := json.Marshal(quickSpec("acme"))
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	switch resp.StatusCode {
	case http.StatusAccepted:
		var out struct {
			ID string `json:"id"`
		}
		json.NewDecoder(resp.Body).Decode(&out)
		ids = append(ids, out.ID)
	case http.StatusTooManyRequests:
		if resp.Header.Get("Retry-After") == "" {
			t.Error("429 without Retry-After")
		}
	default:
		t.Fatalf("over-quota submit: status %d", resp.StatusCode)
	}
	resp.Body.Close()

	// Malformed JSON is a synchronous 400, never accepted.
	resp, err = http.Post(ts.URL+"/jobs", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", resp.StatusCode)
	}

	wctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	states := map[string]State{}
	for _, id := range ids {
		st, err := cl.Wait(wctx, id, 20*time.Millisecond)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		states[id] = st.State
		if st.State == StateFailed {
			if st.Error == nil || st.Error.Kind != KindInvalid {
				t.Errorf("%s failed with %+v, want kind %s", id, st.Error, KindInvalid)
			}
			if st.Err() == nil {
				t.Errorf("%s: failed status raises nil error", id)
			}
		}
		if st.State == StateDone {
			blif, err := cl.Result(wctx, id)
			if err != nil {
				t.Fatalf("result %s: %v", id, err)
			}
			if !strings.HasPrefix(string(blif), ".model") {
				t.Errorf("%s: result is not BLIF: %.40q", id, blif)
			}
		}
	}
	failed := 0
	for id, st := range states {
		if !st.Terminal() {
			t.Errorf("%s stuck in %s", id, st)
		}
		if st == StateFailed {
			failed++
		}
	}
	if failed != 1 {
		t.Errorf("failed = %d, want exactly the malformed-BLIF job", failed)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("clean drain: %v", err)
	}
	st := s.Stats()
	if st.Accepted != st.Done+st.Failed+st.Shed {
		t.Errorf("accounting: accepted %d != done %d + failed %d + shed %d", st.Accepted, st.Done, st.Failed, st.Shed)
	}
	if st.Running != 0 {
		t.Errorf("running = %d after drain", st.Running)
	}
}

// TestDaemonByteIdentity: a daemon job's netlist is byte-identical to the
// one-shot library path with the same options (the acceptance criterion for
// "completed" in the drain invariant).
func TestDaemonByteIdentity(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	job, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	<-job.done
	got, ok := job.resultBytes()
	if !ok {
		t.Fatalf("job finished %s: %+v", job.Status().State, job.Status().Error)
	}

	c, err := netlist.ReadBLIF(strings.NewReader(quickBLIF))
	if err != nil {
		t.Fatal(err)
	}
	opts, err := job.Spec.engineOptions(s.cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := turbosyn.SynthesizeContext(context.Background(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := netlist.WriteBLIF(&want, res.Realized); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("daemon netlist differs from one-shot synthesis:\ndaemon:\n%s\none-shot:\n%s", got, want.Bytes())
	}
}

// TestDaemonRecovery: jobs accepted (journaled) but never run — a crash
// before the fleet started — are re-admitted on restart, run to completion,
// and marked recovered. Zero jobs silently lost.
func TestDaemonRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, err := New(Config{Fleet: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		job, err := s1.Submit(quickSpec("t"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, job.ID)
	}
	// Crash: the fleet never starts, the journal is abandoned un-drained.
	s1.journal.Close()

	s2, err := New(Config{Fleet: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Stats().Recovered; got != 3 {
		t.Fatalf("recovered = %d, want 3", got)
	}
	s2.Start()
	for _, id := range ids {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		select {
		case <-job.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("job %s never finished after recovery", id)
		}
		st := job.Status()
		if st.State != StateDone {
			t.Errorf("%s: state %s (%+v), want done", id, st.State, st.Error)
		}
		if st.Result == nil || !st.Result.Recovered {
			t.Errorf("%s: result not marked recovered: %+v", id, st.Result)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	// After a clean drain the compact-on-open cycle leaves nothing pending.
	pending, _, err := LoadJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(pending) != 0 {
		t.Errorf("%d jobs still pending after clean drain", len(pending))
	}
}

// TestDaemonDrainRejectsSubmit: a draining daemon refuses new work with the
// closed reason (mapped to 503 by the HTTP layer) and Drain is idempotent.
func TestDaemonDrainRejectsSubmit(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(quickSpec("t"))
	var rej *jobqueue.RejectError
	if !errors.As(err, &rej) || rej.Reason != jobqueue.ReasonClosed {
		t.Fatalf("submit after drain: %v, want RejectError{closed}", err)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
}

// TestDaemonMemBudgetAdmission: when admitted jobs exhaust the arena-byte
// headroom, further submissions shed with 429 material (RejectError +
// RetryAfter) until a reservation frees.
func TestDaemonMemBudgetAdmission(t *testing.T) {
	s := testServer(t, Config{
		Fleet:       1,
		PerJobArena: 1 << 20,
		MemBudget:   2 << 20, // room for exactly two reservations
	})
	// Fleet not started: submissions stay queued, reservations stay held.
	if _, err := s.Submit(quickSpec("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(quickSpec("b")); err != nil {
		t.Fatal(err)
	}
	_, err := s.Submit(quickSpec("c"))
	var rej *jobqueue.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("third submit: %v, want memory-headroom rejection", err)
	}
	if rej.RetryAfter <= 0 {
		t.Error("memory rejection without RetryAfter")
	}
	st := s.Stats()
	if st.MemReserved != 2<<20 {
		t.Errorf("mem_reserved = %d, want %d", st.MemReserved, 2<<20)
	}
}

// TestProgressStream: the NDJSON progress endpoint ends with a terminal
// status line carrying the result metadata.
func TestProgressStream(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/progress?interval_ms=50")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	var last JobStatus
	n := 0
	for dec.More() {
		if err := dec.Decode(&last); err != nil {
			t.Fatal(err)
		}
		n++
	}
	if n == 0 {
		t.Fatal("progress stream produced no lines")
	}
	if !last.State.Terminal() {
		t.Errorf("stream ended on non-terminal state %s", last.State)
	}
	if last.State == StateDone && last.Result == nil {
		t.Error("terminal done line missing result metadata")
	}
}

// TestNewRejectsNegativeWorkersPerJob: a negative per-job worker count is a
// start-up error. Accepting it would admit every job and then fail each one
// as internal when the engine rejects its options.
func TestNewRejectsNegativeWorkersPerJob(t *testing.T) {
	s, err := New(Config{Fleet: 1, WorkersPerJob: -1})
	if err == nil {
		s.Close()
		t.Fatal("New accepted WorkersPerJob = -1")
	}
	if !strings.Contains(err.Error(), "WorkersPerJob") {
		t.Errorf("error %q does not name WorkersPerJob", err)
	}
}
