// Chaos suite: the daemon's robustness invariants under injected faults
// (internal/faultinject server-path points). Run under -race by the chaos CI
// job. Plans are process-global and exclusive, so these tests do not use
// t.Parallel.
package server

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"turbosyn/internal/core"
	"turbosyn/internal/faultinject"
	"turbosyn/internal/jobqueue"
	"turbosyn/internal/traceval"
)

// TestChaosPanicJobFleetSurvives: a job that panics inside the execution
// fence fails typed internal — and the worker that absorbed it keeps
// serving. One poisoned job never kills the fleet.
func TestChaosPanicJobFleetSurvives(t *testing.T) {
	s := testServer(t, Config{Fleet: 2})
	s.Start()
	plan, deactivate := faultinject.Activate(faultinject.Config{PanicAtJob: 3})
	defer deactivate()

	var jobs []*Job
	for i := 0; i < 6; i++ {
		job, err := s.Submit(quickSpec("t"))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	poisoned := 0
	for _, job := range jobs {
		select {
		case <-job.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never finished — a panic killed its worker", job.ID)
		}
		st := job.Status()
		switch st.State {
		case StateDone:
		case StateFailed:
			poisoned++
			if st.Error.Kind != KindInternal {
				t.Errorf("%s: poisoned job failed %s, want %s", job.ID, st.Error.Kind, KindInternal)
			}
			var ie *core.InternalError
			if err := st.Err(); !errors.As(err, &ie) {
				t.Errorf("%s: wire error does not raise to *core.InternalError: %v", job.ID, err)
			}
		default:
			t.Errorf("%s: state %s", job.ID, st.State)
		}
	}
	if poisoned != 1 {
		t.Errorf("poisoned = %d, want exactly 1 (plan fired %d)", poisoned, plan.Fired(faultinject.KindPanicJob))
	}
	// The fleet still serves after absorbing the panic.
	job, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(30 * time.Second):
		t.Fatal("fleet dead after absorbing a panic")
	}
	if st := job.Status(); st.State != StateDone {
		t.Errorf("post-panic job: %s (%+v)", st.State, st.Error)
	}
}

// TestChaosJournalFailRefusesAdmission: durability-first — when the journal
// append fails, the job is refused (no 202 without a durable record) and no
// phantom job lingers; admission resumes once the disk heals.
func TestChaosJournalFailRefusesAdmission(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	_, deactivate := faultinject.Activate(faultinject.Config{JournalFailAt: 1})
	job, err := s.Submit(quickSpec("t"))
	deactivate()
	if err == nil {
		t.Fatal("submit succeeded with a failing journal")
	}
	var rej *jobqueue.RejectError
	if errors.As(err, &rej) {
		t.Fatalf("journal failure surfaced as a queue rejection: %v", err)
	}
	var inj *faultinject.Injected
	if !errors.As(err, &inj) {
		t.Fatalf("journal failure does not carry the injected fault: %v", err)
	}
	if job != nil {
		t.Fatal("job handle returned alongside a refusal")
	}
	if n := len(s.Jobs("")); n != 0 {
		t.Fatalf("%d phantom jobs after refused admission", n)
	}
	if st := s.Stats(); st.Accepted != 0 || st.MemReserved != 0 {
		t.Fatalf("refusal leaked accounting: %+v", st)
	}
	// Disk healed: the same submission is admitted.
	if _, err := s.Submit(quickSpec("t")); err != nil {
		t.Fatalf("submit after heal: %v", err)
	}
}

// TestChaosSlowTenantFairShare: one tenant whose every job dawdles must not
// starve another tenant sharing the fleet — fair-share dequeuing interleaves
// them, so the fast tenant's batch finishes while the slow one still owes
// work.
func TestChaosSlowTenantFairShare(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	_, deactivate := faultinject.Activate(faultinject.Config{
		SlowTenant: "molasses", SlowTenantDelay: 150 * time.Millisecond,
	})
	defer deactivate()

	const perTenant = 4
	var slow, fast []*Job
	// Interleave submissions so both tenants are queued before the fleet
	// starts; fairness, not arrival order, decides the schedule.
	for i := 0; i < perTenant; i++ {
		j1, err := s.Submit(quickSpec("molasses"))
		if err != nil {
			t.Fatal(err)
		}
		j2, err := s.Submit(quickSpec("speedy"))
		if err != nil {
			t.Fatal(err)
		}
		slow, fast = append(slow, j1), append(fast, j2)
	}
	s.Start()
	var fastDone time.Time
	for _, job := range fast {
		select {
		case <-job.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("fast tenant starved: %s never finished", job.ID)
		}
	}
	fastDone = time.Now()
	var slowDone time.Time
	for _, job := range slow {
		select {
		case <-job.done:
		case <-time.After(60 * time.Second):
			t.Fatalf("slow tenant job %s never finished", job.ID)
		}
	}
	slowDone = time.Now()
	if slowDone.Before(fastDone) {
		t.Errorf("slow tenant finished before the fast one (fast %v, slow %v) — fairness not interleaving", fastDone, slowDone)
	}
	for _, job := range append(fast, slow...) {
		if st := job.Status(); st.State != StateDone {
			t.Errorf("%s: %s (%+v)", job.ID, st.State, st.Error)
		}
	}
}

// TestChaosKillDuringDrain: a dead disk eats the terminal records written
// during drain; on restart every such job is re-admitted from its accepted
// record and completes. Accepted jobs survive even a crash inside the drain
// itself — zero silently lost.
func TestChaosKillDuringDrain(t *testing.T) {
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
	// The disk dies as the drain begins: every terminal append from here on
	// fails. The fleet never started, so the drain sheds all three — but the
	// shed terminals are lost with the disk.
	_, deactivate := faultinject.Activate(faultinject.Config{JournalFailAt: 1, JournalFailAll: true})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	deactivate()
	for _, id := range ids {
		job, _ := s1.Job(id)
		if st := job.Status(); st.State != StateShed {
			t.Fatalf("%s: %s, want shed during drain", id, st.State)
		}
	}

	// Restart on the healed disk: the accepted records (written before the
	// fault) minus no terminals = all three jobs pending.
	s2, err := New(Config{Fleet: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(s2)
	if got := s2.Stats().Recovered; got != 3 {
		t.Fatalf("recovered = %d, want 3", got)
	}
	s2.Start()
	for _, id := range ids {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("%s silently lost across kill-during-drain", id)
		}
		select {
		case <-job.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never finished after recovery", id)
		}
		if st := job.Status(); st.State != StateDone {
			t.Errorf("%s: %s (%+v)", id, st.State, st.Error)
		}
	}
}

// TestChaosDrainDeadlineCancelsInFlight: when the drain deadline expires
// with a job still running, the job is cancelled — failing with the
// retryable cancel kind — and queued jobs shed; nothing is left
// non-terminal.
func TestChaosDrainDeadlineCancelsInFlight(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	_, deactivate := faultinject.Activate(faultinject.Config{
		SlowTenant: "stuck", SlowTenantDelay: 10 * time.Second,
	})
	defer deactivate()
	running, err := s.Submit(quickSpec("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	queued, err := s.Submit(quickSpec("stuck"))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	// Wait for the first job to occupy the worker (sleeping in JobStart).
	deadline := time.Now().Add(5 * time.Second)
	for s.Stats().Running == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	err = s.Drain(ctx)
	if err == nil {
		t.Fatal("drain hit its deadline but reported success")
	}
	stRunning := running.Status()
	if stRunning.State != StateFailed && stRunning.State != StateDone {
		t.Fatalf("in-flight job: %s, want failed (cancelled) or done", stRunning.State)
	}
	if stRunning.State == StateFailed {
		if stRunning.Error.Kind != KindCancel {
			t.Errorf("cancelled job kind %s, want %s", stRunning.Error.Kind, KindCancel)
		}
		if !stRunning.Error.Retryable {
			t.Error("drain cancellation not marked retryable")
		}
		var ce *core.CancelError
		if werr := stRunning.Err(); !errors.As(werr, &ce) {
			t.Errorf("wire error does not raise to *core.CancelError: %v", werr)
		}
	}
	if st := queued.Status(); st.State != StateShed {
		t.Errorf("queued job: %s, want shed", st.State)
	}
	st := s.Stats()
	if st.Accepted != st.Done+st.Failed+st.Shed {
		t.Errorf("accounting after deadline drain: %+v", st)
	}
}

// chaosTrace fetches a job's trace over the HTTP surface and validates it,
// failing the test on any non-200 or a trace that does not check out. Chaos
// must not cost observability: the traces of poisoned, shed, and recovered
// jobs are exactly the ones worth reading.
func chaosTrace(t *testing.T, base, id string) *traceval.Trace {
	t.Helper()
	resp, err := http.Get(base + "/jobs/" + id + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: trace fetch status %d: %s", id, resp.StatusCode, data)
	}
	tr, err := traceval.Check(data)
	if err != nil {
		t.Fatalf("%s: trace does not validate: %v", id, err)
	}
	return tr
}

// TestChaosPanicJobTraceStillValid: a job that panics mid-run still yields a
// downloadable trace that passes validation and carries the full daemon
// lifecycle — finishJob runs from the recover fence, so the rings are
// finalized before the terminal status licenses the read. The flight
// recorder survives the crash it recorded.
func TestChaosPanicJobTraceStillValid(t *testing.T) {
	s := testServer(t, Config{Fleet: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, deactivate := faultinject.Activate(faultinject.Config{PanicAtJob: 1})
	defer deactivate()

	job, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(30 * time.Second):
		t.Fatal("poisoned job never finished")
	}
	if st := job.Status(); st.State != StateFailed || st.Error.Kind != KindInternal {
		t.Fatalf("poisoned job: %s (%+v), want failed/%s", st.State, st.Error, KindInternal)
	}
	tr := chaosTrace(t, ts.URL, job.ID)
	counts := tr.Counts()
	// The daemon side of the timeline is complete even though the engine
	// side stops where the panic cut it off.
	for span, want := range map[string]int{"admission": 1, "queue-wait": 1, "dispatch": 1, "journal": 2} {
		if counts[span] != want {
			t.Errorf("poisoned trace: %d %q spans, want %d (counts: %v)", counts[span], span, want, counts)
		}
	}
	if tr.OtherData["runID"] != job.ID {
		t.Errorf("poisoned trace runID = %v, want %s", tr.OtherData["runID"], job.ID)
	}

	// The worker that absorbed the panic keeps recording: the next job's
	// trace is whole, engine spans included.
	job2, err := s.Submit(quickSpec("t"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job2.done:
	case <-time.After(30 * time.Second):
		t.Fatal("post-panic job never finished")
	}
	if counts := chaosTrace(t, ts.URL, job2.ID).Counts(); counts["flow"] == 0 || counts["map"] == 0 {
		t.Errorf("post-panic trace lacks engine spans (counts: %v)", counts)
	}
}

// TestChaosKillDuringDrainTracesRecoverable: observability on both sides of
// a crash — jobs shed by a drain with a dead disk still serve valid traces
// recording the shed, and after restart the recovered re-runs serve fresh
// valid traces with engine spans.
func TestChaosKillDuringDrainTracesRecoverable(t *testing.T) {
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
	_, deactivate := faultinject.Activate(faultinject.Config{JournalFailAt: 1, JournalFailAll: true})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	if err := s1.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	cancel()
	deactivate()

	ts1 := httptest.NewServer(s1.Handler())
	for _, id := range ids {
		tr := chaosTrace(t, ts1.URL, id)
		counts := tr.Counts()
		if counts["admission"] != 1 || counts["shed"] != 1 {
			t.Errorf("%s: shed trace counts %v, want 1 admission + 1 shed marker", id, counts)
		}
		if counts["dispatch"] != 0 {
			t.Errorf("%s: shed trace claims a dispatch that never happened (counts: %v)", id, counts)
		}
	}
	ts1.Close()

	s2, err := New(Config{Fleet: 1, JournalDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer drain(s2)
	s2.Start()
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	for _, id := range ids {
		job, ok := s2.Job(id)
		if !ok {
			t.Fatalf("%s lost across kill-during-drain", id)
		}
		select {
		case <-job.done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never finished after recovery", id)
		}
		if st := job.Status(); st.State != StateDone {
			t.Fatalf("%s: %s (%+v)", id, st.State, st.Error)
		}
		counts := chaosTrace(t, ts2.URL, id).Counts()
		// Recovered jobs skip Submit (no admission span — they re-enter via
		// the journal) but run for real: dispatch and engine spans present.
		if counts["dispatch"] != 1 || counts["queue-wait"] != 1 {
			t.Errorf("%s: recovered trace counts %v, want 1 dispatch + 1 queue-wait", id, counts)
		}
		if counts["flow"] == 0 || counts["map"] == 0 {
			t.Errorf("%s: recovered trace lacks engine spans (counts: %v)", id, counts)
		}
	}
}
