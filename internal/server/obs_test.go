// Observability contract tests: the stitched per-job trace endpoint, the
// push progress fan-out, the /metrics exposition and the /statz schema.
package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"turbosyn/internal/jobqueue"
	"turbosyn/internal/traceval"
)

// waitDone blocks until the job is terminal (or the test times out).
func waitDone(t *testing.T, job *Job) JobStatus {
	t.Helper()
	select {
	case <-job.done:
	case <-time.After(60 * time.Second):
		t.Fatalf("%s never reached a terminal state", job.ID)
	}
	return job.Status()
}

// TestJobTraceEndpoint: a completed job's trace downloads as valid Perfetto
// JSON carrying the daemon lifecycle spans (admission, queue-wait, journal
// accepted+terminal, dispatch) and the engine's synthesis spans on the same
// timeline; a still-moving job answers 409 and an unknown id 404.
func TestJobTraceEndpoint(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Submitted before Start: the job stays queued, and its trace must be
	// refused while non-terminal (the rings are still being written).
	job, err := s.Submit(quickSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace of a queued job: status %d, want 409", resp.StatusCode)
	}

	s.Start()
	if st := waitDone(t, job); st.State != StateDone {
		t.Fatalf("job finished %s (%+v)", st.State, st.Error)
	}
	resp, err = http.Get(ts.URL + "/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch: status %d: %s", resp.StatusCode, data)
	}
	tr, err := traceval.Check(data)
	if err != nil {
		t.Fatalf("trace does not validate: %v", err)
	}
	counts := tr.Counts()
	for span, want := range map[string]int{
		"admission":  1,
		"queue-wait": 1,
		"journal":    2, // accepted + terminal records
		"dispatch":   1,
	} {
		if counts[span] != want {
			t.Errorf("trace has %d %q spans, want %d (counts: %v)", counts[span], span, want, counts)
		}
	}
	// Engine spans ride the same trace: synthesis of even the quick circuit
	// runs flow computations and the final mapping stage.
	if counts["flow"] == 0 || counts["map"] == 0 {
		t.Errorf("trace lacks engine spans (counts: %v)", counts)
	}
	if tr.OtherData["runID"] != job.ID {
		t.Errorf("trace runID = %v, want %s", tr.OtherData["runID"], job.ID)
	}

	resp, err = http.Get(ts.URL + "/jobs/nope/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace of unknown job: status %d, want 404", resp.StatusCode)
	}
}

// TestJobTraceDisabled: TraceRingCap < 0 turns per-job tracing off — jobs
// run ringless (no recorder allocation) and the endpoint answers 404.
func TestJobTraceDisabled(t *testing.T) {
	s := testServer(t, Config{Fleet: 1, TraceRingCap: -1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(quickSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	if job.rec != nil || job.ring != nil {
		t.Fatal("tracing disabled but the job carries a recorder")
	}
	if st := waitDone(t, job); st.State != StateDone {
		t.Fatalf("job finished %s (%+v)", st.State, st.Error)
	}
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("trace with tracing disabled: status %d, want 404", resp.StatusCode)
	}
}

// TestSubscribeTerminalExactlyOnce: a subscriber sees the terminal status
// exactly once, as the channel's final element, on each terminal path
// (done, failed, shed).
func TestSubscribeTerminalExactlyOnce(t *testing.T) {
	for _, tc := range []struct {
		state State
		err   *ErrorInfo
	}{
		{StateDone, nil},
		{StateFailed, &ErrorInfo{Kind: KindInvalid, Message: "bad"}},
		{StateShed, &ErrorInfo{Kind: KindShed, Message: "drain"}},
	} {
		job := newJob("j-1", 1, quickSpec("t"), time.Now(), 0)
		ch, cancel := job.Subscribe(8)
		defer cancel()
		job.setState(StateAdmitted)
		job.setState(StateRunning)
		job.finish(tc.state, ResultMeta{}, nil, tc.err)
		// Re-finishing must be a no-op: no duplicate terminal, no panic on
		// the closed channels.
		job.finish(StateFailed, ResultMeta{}, nil, nil)

		terminals, total := 0, 0
		var last JobStatus
		for st := range ch {
			total++
			last = st
			if st.State.Terminal() {
				terminals++
			}
		}
		if terminals != 1 {
			t.Errorf("%s: %d terminal statuses delivered, want exactly 1", tc.state, terminals)
		}
		if last.State != tc.state {
			t.Errorf("final status %s, want %s", last.State, tc.state)
		}
		if total < 4 { // initial + admitted + running + terminal
			t.Errorf("%s: %d statuses delivered, want the full lifecycle", tc.state, total)
		}
	}
}

// TestSubscribeSlowReaderDropsOldest: a reader that never drains loses the
// oldest buffered updates but still receives the terminal status.
func TestSubscribeSlowReaderDropsOldest(t *testing.T) {
	job := newJob("j-1", 1, quickSpec("t"), time.Now(), 0)
	ch, cancel := job.Subscribe(2)
	defer cancel()
	// Flood with more updates than the buffer holds, without draining.
	for i := 0; i < 20; i++ {
		job.publish(JobStatus{ID: job.ID, State: StateRunning})
	}
	job.finish(StateDone, ResultMeta{}, nil, nil)
	var got []JobStatus
	for st := range ch {
		got = append(got, st)
	}
	if len(got) > 3 {
		t.Fatalf("slow reader received %d buffered statuses from a 2-buffer subscription", len(got))
	}
	if len(got) == 0 || !got[len(got)-1].State.Terminal() {
		t.Fatalf("terminal status lost by drop-oldest: %+v", got)
	}
}

// TestSubscribeAfterTerminal: a late subscriber gets the final status once
// on a pre-closed channel — same contract as a live subscription, no
// waiting.
func TestSubscribeAfterTerminal(t *testing.T) {
	job := newJob("j-1", 1, quickSpec("t"), time.Now(), 0)
	job.finish(StateDone, ResultMeta{Phi: 2}, nil, nil)
	ch, cancel := job.Subscribe(8)
	defer cancel()
	select {
	case st, ok := <-ch:
		if !ok || st.State != StateDone {
			t.Fatalf("late subscriber first read: %+v ok=%v, want the done status", st, ok)
		}
	case <-time.After(time.Second):
		t.Fatal("late subscription did not deliver immediately")
	}
	if _, ok := <-ch; ok {
		t.Fatal("late subscription channel not closed after the final status")
	}
}

// TestSubscribeCancelDetaches: cancelling a subscription closes its channel
// and later publishes fan out only to the remaining subscribers.
func TestSubscribeCancelDetaches(t *testing.T) {
	job := newJob("j-1", 1, quickSpec("t"), time.Now(), 0)
	ch1, cancel1 := job.Subscribe(8)
	ch2, cancel2 := job.Subscribe(8)
	defer cancel2()
	cancel1()
	if _, ok := <-ch1; ok {
		// First element was the preloaded current status; after cancel the
		// channel must drain to closed.
		if _, ok := <-ch1; ok {
			t.Fatal("cancelled subscription still open")
		}
	}
	job.finish(StateDone, ResultMeta{}, nil, nil)
	sawTerminal := false
	for st := range ch2 {
		if st.State.Terminal() {
			sawTerminal = true
		}
	}
	if !sawTerminal {
		t.Fatal("surviving subscriber lost the terminal status")
	}
}

// TestMetricsFamilies: after one served job, /metrics exposes the lifecycle
// latency histograms (cumulative buckets, sum, count) and the per-tenant
// gauges next to the existing daemon counters.
func TestMetricsFamilies(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(quickSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, job)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(data)
	for _, want := range []string{
		"# TYPE turbosynd_admission_seconds histogram",
		`turbosynd_admission_seconds_bucket{le="+Inf"} 1`,
		"turbosynd_admission_seconds_count 1",
		"# TYPE turbosynd_queue_wait_seconds histogram",
		"turbosynd_queue_wait_seconds_count 1",
		"# TYPE turbosynd_run_seconds histogram",
		"turbosynd_run_seconds_count 1",
		"# TYPE turbosynd_journal_append_seconds histogram",
		"turbosynd_journal_append_seconds_count 2", // accepted + terminal
		`turbosynd_tenant_served_total{tenant="acme"} 1`,
		`turbosynd_tenant_queued{tenant="acme"} 0`,
		`turbosynd_tenant_running{tenant="acme"} 0`,
		`turbosynd_tenant_fair_share_deficit{tenant="acme"} 0`,
		"turbosynd_fleet_size 1",
		"turbosynd_fleet_occupancy 0",
	} {
		if !containsLine(body, want) {
			t.Errorf("/metrics lacks %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", body)
	}
}

func containsLine(body, want string) bool {
	for _, line := range splitLines(body) {
		if line == want {
			return true
		}
	}
	return false
}

func splitLines(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != '\n' {
			i++
		}
		out = append(out, s[:i])
		if i < len(s) {
			i++
		}
		s = s[i:]
	}
	return out
}

// TestTenantShedAndRejectedMetrics: shed and rejection reasons surface per
// tenant — a drain sheds queued jobs with reason "drain", and queue-side
// rejections carry their jobqueue reason.
func TestTenantShedAndRejectedMetrics(t *testing.T) {
	s := testServer(t, Config{
		Fleet: 1,
		Queue: jobqueue.Config{Capacity: 8, PerTenant: 1},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Fleet not started: first submission occupies the quota, second is
	// rejected tenant-quota, then the drain sheds the queued one.
	if _, err := s.Submit(quickSpec("acme")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(quickSpec("acme")); err == nil {
		t.Fatal("over-quota submission accepted")
	}
	if err := drain(s); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	body := string(data)
	for _, want := range []string{
		`turbosynd_tenant_shed_total{tenant="acme",reason="drain"} 1`,
		`turbosynd_tenant_rejected_total{tenant="acme",reason="tenant-quota"} 1`,
	} {
		if !containsLine(body, want) {
			t.Errorf("/metrics lacks %q\n%s", want, body)
		}
	}
}

// TestStatzSchemaGolden pins the /statz JSON schema byte-for-byte: a
// fully-populated Stats document must marshal exactly as the committed
// golden file, so accidental field renames, re-orderings or type changes
// surface as a diff. Regenerate deliberately with
// TURBOSYN_UPDATE_GOLDEN=1 go test ./internal/server -run TestStatzSchemaGolden.
func TestStatzSchemaGolden(t *testing.T) {
	st := Stats{
		Accepted:    12,
		Done:        8,
		Failed:      1,
		Shed:        2,
		Recovered:   1,
		Running:     1,
		FleetSize:   4,
		Occupancy:   0.25,
		MemReserved: 64 << 20,
		MemBudget:   256 << 20,
		Draining:    true,
		Queue: jobqueue.Stats{
			Queued:   3,
			Accepted: 12,
			Dequeued: 9,
			Rejected: map[jobqueue.Reason]uint64{
				jobqueue.ReasonQueueFull:   2,
				jobqueue.ReasonTenantQuota: 1,
			},
			Tenants: []jobqueue.TenantStats{
				{Tenant: "acme", Queued: 2, Served: 5,
					Rejected: map[jobqueue.Reason]uint64{jobqueue.ReasonTenantQuota: 1}},
				{Tenant: "globex", Queued: 1, Served: 4},
			},
		},
		Tenants: []TenantInfo{
			{Tenant: "acme", Queued: 2, Running: 1, Served: 5,
				ShedByReason:     map[string]uint64{"drain": 1},
				Rejected:         map[string]uint64{"tenant-quota": 1},
				FairShareDeficit: 0},
			{Tenant: "globex", Queued: 1, Running: 0, Served: 4,
				Rejected:         map[string]uint64{"memory": 1},
				FairShareDeficit: 1},
		},
		Latency: map[string]LatencySummary{
			"admission":      {Count: 12, SumSeconds: 0.006, P50Seconds: 0.0004, P99Seconds: 0.001},
			"queue_wait":     {Count: 9, SumSeconds: 1.8, P50Seconds: 0.15, P99Seconds: 0.9},
			"run":            {Count: 9, SumSeconds: 27, P50Seconds: 2.5, P99Seconds: 8},
			"journal_append": {Count: 21, SumSeconds: 0.021, P50Seconds: 0.0008, P99Seconds: 0.003},
		},
	}
	got, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "statz.golden.json")
	if os.Getenv("TURBOSYN_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with TURBOSYN_UPDATE_GOLDEN=1)", err)
	}
	if string(got) != string(want) {
		t.Errorf("/statz schema drifted from %s (regenerate deliberately with TURBOSYN_UPDATE_GOLDEN=1):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}

	// The live endpoint marshals the same type — one sanity decode so the
	// golden cannot drift from what the handler actually serves.
	s := testServer(t, Config{Fleet: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var live Stats
	if err := json.NewDecoder(resp.Body).Decode(&live); err != nil {
		t.Fatalf("live /statz does not decode into Stats: %v", err)
	}
	if live.FleetSize != 1 {
		t.Errorf("live fleet_size = %d, want 1", live.FleetSize)
	}
}

// TestProgressStreamIsPushDriven: the NDJSON stream delivers the terminal
// line promptly after the job finishes — no poll-interval quantization —
// and ends with exactly one terminal status even when the client asked for
// the legacy poll interval.
func TestProgressStreamIsPushDriven(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	job, err := s.Submit(quickSpec("acme"))
	if err != nil {
		t.Fatal(err)
	}
	// Legacy ?interval_ms is accepted and ignored: were the server still
	// polling at this interval, the stream could not finish this fast.
	resp, err := http.Get(ts.URL + "/jobs/" + job.ID + "/progress?interval_ms=3600000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	terminals := 0
	var last JobStatus
	deadline := time.After(30 * time.Second)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			var st JobStatus
			if err := dec.Decode(&st); err != nil {
				return
			}
			last = st
			if st.State.Terminal() {
				terminals++
			}
		}
	}()
	select {
	case <-done:
	case <-deadline:
		t.Fatal("push stream did not terminate (poll interval leaked back in?)")
	}
	if terminals != 1 {
		t.Fatalf("stream carried %d terminal lines, want exactly 1", terminals)
	}
	if last.State != StateDone {
		t.Fatalf("stream ended on %s (%+v)", last.State, last.Error)
	}

	// obs.Snapshot progress lines ride the same stream: the engine's final
	// snapshot must have been published to the job before the terminal line.
	if snap := job.Snapshot(); snap.RunID != job.ID {
		t.Errorf("job snapshot runID = %q, want %q", snap.RunID, job.ID)
	}
}
