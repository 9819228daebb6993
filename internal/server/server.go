// Package server is the multi-tenant synthesis daemon behind cmd/turbosynd:
// an HTTP/JSON front end over a fleet of synthesis workers, with admission
// control (bounded tenant-fair queue, per-tenant rate limits, memory-budget
// headroom → 429 + Retry-After), a crash-safe job journal (accepted jobs
// are resumed or reported failed across restarts, never silently lost),
// per-job panic containment (one poisoned job never kills the fleet), and
// graceful drain (stop admitting, finish or shed what is in flight, flush).
// DESIGN.md §12 documents the job lifecycle and the invariants.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"turbosyn"
	"turbosyn/internal/core"
	"turbosyn/internal/faultinject"
	"turbosyn/internal/jobqueue"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// Config sizes the daemon. Zero values select the defaults noted per field.
type Config struct {
	// Fleet is the number of jobs run concurrently (default NumCPU).
	Fleet int
	// WorkersPerJob is each job's engine worker-pool size (default 1: the
	// fleet provides the parallelism, one worker per job keeps a tenant
	// from monopolizing cores). New rejects a negative value.
	WorkersPerJob int
	// Queue bounds admission (see jobqueue.Config).
	Queue jobqueue.Config
	// MemBudget caps the summed arena reservations of admitted jobs; a
	// submission that would exceed it is shed with 429 (0 = unlimited).
	MemBudget int64
	// PerJobArena is the arena-byte reservation and budget given to each
	// job (default 64 MiB). Jobs may request less, never more.
	PerJobArena int
	// DefaultTimeout bounds jobs that do not ask for a timeout (default
	// 60s); MaxTimeout caps what they may ask for (default 10m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// JournalDir enables the crash-safe job journal ("" disables: jobs do
	// not survive a restart).
	JournalDir string
	// CacheDir is the shared persistent decomposition cache; warm entries
	// are shared across jobs and tenants ("" disables).
	CacheDir string
	// TraceRingCap sizes each ring of a job's stitched daemon+engine trace,
	// in events (default 1024, ~48 KiB per ring; -1 disables per-job
	// tracing — GET /jobs/{id}/trace then answers 404).
	TraceRingCap int
	// Logger receives structured serving logs (nil = silent).
	Logger *slog.Logger
}

func (c Config) fill() Config {
	if c.Fleet <= 0 {
		c.Fleet = runtime.NumCPU()
	}
	if c.WorkersPerJob == 0 {
		c.WorkersPerJob = 1
	}
	if c.PerJobArena <= 0 {
		c.PerJobArena = 64 << 20
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Minute
	}
	if c.TraceRingCap == 0 {
		c.TraceRingCap = 1024
	}
	if c.TraceRingCap < 0 {
		c.TraceRingCap = 0 // 0 = disabled from here on
	}
	return c
}

// Server is the daemon. Create with New, serve its Handler, stop with
// Drain.
type Server struct {
	cfg     Config
	queue   *jobqueue.Queue
	journal *Journal

	mu   sync.Mutex
	jobs map[string]*Job
	seq  uint64

	memReserved atomic.Int64

	runCtx    context.Context
	cancelRun context.CancelFunc
	wg        sync.WaitGroup
	started   bool
	draining  atomic.Bool
	drainOnce sync.Once
	drainErr  error

	// Lifetime counters.
	accepted  atomic.Uint64
	done      atomic.Uint64
	failed    atomic.Uint64
	shed      atomic.Uint64
	running   atomic.Int64
	recovered atomic.Uint64

	// Latency histograms and per-tenant accounting (metrics.go).
	metrics daemonMetrics

	tenantMu   sync.Mutex
	tenantAcct map[string]*tenantAccount
}

// New builds the server: it replays and compacts the journal, re-admits
// every recovered job, and readies (but does not start) the worker fleet.
func New(cfg Config) (*Server, error) {
	if cfg.WorkersPerJob < 0 {
		return nil, fmt.Errorf("server: WorkersPerJob = %d is negative", cfg.WorkersPerJob)
	}
	cfg = cfg.fill()
	s := &Server{
		cfg: cfg, queue: jobqueue.New(cfg.Queue), jobs: map[string]*Job{},
		metrics: newDaemonMetrics(), tenantAcct: map[string]*tenantAccount{},
	}
	s.runCtx, s.cancelRun = context.WithCancel(context.Background())

	var pending []PendingJob
	if cfg.JournalDir != "" {
		var err error
		var maxSeq uint64
		pending, maxSeq, err = LoadJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
		s.seq = maxSeq
		// Compact before reopening: the fresh journal holds exactly the
		// still-pending jobs, so it cannot grow without bound across
		// restarts.
		if err := CompactJournal(cfg.JournalDir, pending); err != nil {
			return nil, err
		}
		s.journal, err = OpenJournal(cfg.JournalDir)
		if err != nil {
			return nil, err
		}
	}
	for _, pj := range pending {
		s.readmit(pj)
	}
	return s, nil
}

// readmit re-enqueues one journal-recovered job; when the queue refuses it
// (capacity, tenant quota — rate limits are exempt), the job is reported
// shed rather than silently dropped.
func (s *Server) readmit(pj PendingJob) {
	job := newJob(pj.ID, pj.Seq, pj.Spec, time.Now(), s.cfg.TraceRingCap)
	job.recovered = true
	s.mu.Lock()
	s.jobs[job.ID] = job
	s.mu.Unlock()
	s.reserveMem()
	s.recovered.Add(1)
	job.enqueuedAt = job.traceNow()
	if _, err := s.queue.EnqueueExempt(tenantOf(pj.Spec), pj.Spec.Priority, job); err != nil {
		job.enqueuedAt = 0 // never queued; the trace gets a bare shed instant
		s.shedJob(job, "recovery", shedError("not resumable after restart: "+err.Error()))
		return
	}
	s.logf("job recovered", "job", job.ID, "tenant", tenantOf(pj.Spec))
}

// Start launches the worker fleet. Idempotent.
func (s *Server) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.started {
		return
	}
	s.started = true
	for i := 0; i < s.cfg.Fleet; i++ {
		s.wg.Add(1)
		go s.worker()
	}
}

// worker pulls jobs off the fair-share queue until the queue is closed and
// drained, or the run context is cancelled.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		it, ok := s.queue.Dequeue(s.runCtx)
		if !ok {
			return
		}
		job := it.Payload.(*Job)
		// The dequeue hand-off makes this worker the trace ring's owner:
		// close the queue-wait span and open the dispatch window.
		if job.ring != nil {
			job.ring.Span(obs.OpQueueWait, job.enqueuedAt, -1, -1)
			job.dispatchStart = job.traceNow()
		}
		job.started = time.Now()
		s.metrics.queueWait.Observe(job.started.Sub(job.Queued).Seconds())
		tenant := tenantOf(job.Spec)
		job.setState(StateAdmitted)
		s.running.Add(1)
		s.tenantRunning(tenant, 1)
		s.execJob(job) // finishJob releases the running slot
	}
}

// progressInterval is the engine's progress-snapshot cadence pushed to
// progress-stream subscribers.
const progressInterval = 250 * time.Millisecond

// execJob runs one job inside the panic fence: any panic that escapes the
// engine's own containment (or lives in the serving path itself) marks this
// job failed and the worker keeps serving.
func (s *Server) execJob(job *Job) {
	defer func() {
		if r := recover(); r != nil {
			err := &core.InternalError{Op: "job", Comp: -1, Node: -1, Value: r}
			s.finishJob(job, StateFailed, ResultMeta{}, nil, EncodeError(err))
		}
	}()
	faultinject.JobStart(tenantOf(job.Spec))

	circuit, err := job.Spec.buildCircuit()
	if err != nil {
		s.finishJob(job, StateFailed, ResultMeta{}, nil, invalidError(err))
		return
	}
	opts, err := job.Spec.engineOptions(s.cfg)
	if err != nil {
		s.finishJob(job, StateFailed, ResultMeta{}, nil, invalidError(err))
		return
	}
	opts.RunID = job.ID
	opts.Logger = s.cfg.Logger
	opts.ProgressInterval = progressInterval
	opts.Progress = func(snap obs.Snapshot) {
		job.snap.Store(&snap)
		job.publish(job.Status())
	}
	// Hand the job's recorder to the engine: its worker rings land next to
	// the daemon ring, on the same clock — one stitched timeline.
	opts.Trace = job.rec

	ctx, cancel := context.WithTimeout(s.runCtx, job.Spec.timeout(s.cfg))
	defer cancel()
	job.setState(StateRunning)
	start := time.Now()
	res, err := turbosyn.SynthesizeContext(ctx, circuit, opts)
	if err != nil {
		s.finishJob(job, StateFailed, ResultMeta{}, nil, EncodeError(err))
		return
	}
	target := res.Realized
	if target == nil {
		target = res.Mapped
	}
	var blif writerBuffer
	if err := netlist.WriteBLIF(&blif, target); err != nil {
		s.finishJob(job, StateFailed, ResultMeta{}, nil, EncodeError(err))
		return
	}
	meta := ResultMeta{
		Phi: res.Phi, LUTs: res.LUTs, Latency: res.Latency,
		Circuit: circuit.Name, Iterations: res.Stats.Iterations,
		RunMS: time.Since(start).Milliseconds(), Recovered: job.recovered,
	}
	s.finishJob(job, StateDone, meta, blif.buf, nil)
}

// shedJob is finishJob for jobs given up without running, tagging the shed
// reason for the per-tenant gauges ("drain", "recovery", ...).
func (s *Server) shedJob(job *Job, reason string, errInfo *ErrorInfo) {
	s.tenantShed(tenantOf(job.Spec), reason)
	s.finishJob(job, StateShed, ResultMeta{}, nil, errInfo)
}

// finishJob moves a job to its terminal state, journals the transition,
// releases its admission reservation and bumps the lifetime counters. A
// journal failure here is logged, not fatal: the in-memory answer stands,
// and the crash-recovery worst case is one duplicate re-run.
//
// Ordering matters: every daemon span is written, and every gauge and
// counter updated, before job.finish makes the terminal state visible.
// Terminal visibility is what licenses the trace handler to read the rings,
// and a reader that sees the job terminal must not still count it running
// or miss it in done/failed/shed.
func (s *Server) finishJob(job *Job, state State, meta ResultMeta, blif []byte, errInfo *ErrorInfo) {
	if job.ring != nil {
		if job.dispatchStart > 0 {
			ok := int64(0)
			if state == StateDone {
				ok = 1
			}
			job.ring.Span(obs.OpDispatch, job.dispatchStart, ok, -1)
		} else {
			// Shed without ever running: close the queue-wait span (when the
			// job reached the queue at all) and mark the shed.
			if job.enqueuedAt > 0 {
				job.ring.Span(obs.OpQueueWait, job.enqueuedAt, 0, -1)
			}
			job.ring.Instant(obs.OpShed, -1, -1)
		}
	}
	// job.started, not dispatchStart, is the "was dispatched" predicate
	// here: dispatchStart exists only when the trace ring does, and the run
	// histogram must fill with tracing disabled too.
	if !job.started.IsZero() {
		s.metrics.run.Observe(time.Since(job.started).Seconds())
		s.tenantRunning(tenantOf(job.Spec), -1)
		s.running.Add(-1)
	}
	jt := job.traceNow()
	jstart := time.Now()
	jerr := s.journal.Terminal(job.ID, state, errInfo)
	s.metrics.journal.Observe(time.Since(jstart).Seconds())
	if job.ring != nil {
		b := int64(0)
		if jerr != nil {
			b = -1
		}
		job.ring.Span(obs.OpJournal, jt, 1, b)
	}
	if jerr != nil {
		s.logf("journal terminal failed", "job", job.ID, "err", jerr.Error())
	}
	s.releaseMem()
	switch state {
	case StateDone:
		s.done.Add(1)
		s.logf("job done", "job", job.ID, "tenant", tenantOf(job.Spec), "phi", meta.Phi, "luts", meta.LUTs, "ms", meta.RunMS)
	case StateShed:
		s.shed.Add(1)
		s.logf("job shed", "job", job.ID, "tenant", tenantOf(job.Spec), "why", errInfo.Message)
	default:
		s.failed.Add(1)
		s.logf("job failed", "job", job.ID, "tenant", tenantOf(job.Spec), "kind", string(errInfo.Kind), "err", errInfo.Message)
	}
	job.finish(state, meta, blif, errInfo)
}

// Submit runs admission control on spec and either admits it (returning the
// job) or rejects it with a *jobqueue.RejectError (queue/quota/rate/drain)
// or a journal error. The HTTP layer maps rejections to 429/503 +
// Retry-After.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	admitStart := time.Now()
	defer func() { s.metrics.admission.Observe(time.Since(admitStart).Seconds()) }()
	if s.draining.Load() {
		s.tenantRejected(tenantOf(spec), "draining")
		return nil, &jobqueue.RejectError{Reason: jobqueue.ReasonClosed, Tenant: tenantOf(spec)}
	}
	// Memory-budget headroom: every admitted job reserves PerJobArena bytes
	// until it reaches a terminal state.
	if s.cfg.MemBudget > 0 {
		if s.memReserved.Add(int64(s.cfg.PerJobArena)) > s.cfg.MemBudget {
			s.memReserved.Add(-int64(s.cfg.PerJobArena))
			s.tenantRejected(tenantOf(spec), "memory")
			return nil, &jobqueue.RejectError{
				Reason: jobqueue.ReasonQueueFull, Tenant: tenantOf(spec), RetryAfter: time.Second,
			}
		}
	}
	s.mu.Lock()
	s.seq++
	job := newJob(fmt.Sprintf("j-%08d", s.seq), s.seq, spec, time.Now(), s.cfg.TraceRingCap)
	s.jobs[job.ID] = job
	s.mu.Unlock()
	admitT := job.traceNow()

	// Durability first: the journal record lands before the queue accepts
	// the job — an unjournalable job is refused outright, because accepting
	// it would promise a durability the daemon cannot deliver.
	jt := job.traceNow()
	jstart := time.Now()
	err := s.journal.Accepted(job)
	s.metrics.journal.Observe(time.Since(jstart).Seconds())
	if err != nil {
		s.forgetJob(job)
		s.releaseMem()
		return nil, err
	}
	if job.ring != nil {
		job.ring.Span(obs.OpJournal, jt, 0, 0)
		// The admission span and the enqueue anchor are written before
		// Enqueue: once the queue holds the job a worker may dequeue it and
		// take over the ring, so the submitting goroutine must be done
		// writing by then.
		job.ring.Span(obs.OpAdmit, admitT, 1, -1)
	}
	job.enqueuedAt = job.traceNow()
	if _, err := s.queue.Enqueue(tenantOf(spec), spec.Priority, job); err != nil {
		// Journal the shed terminal so the accepted record does not dangle.
		if terr := s.journal.Terminal(job.ID, StateShed, shedError(err.Error())); terr != nil {
			s.logf("journal terminal failed", "job", job.ID, "err", terr.Error())
		}
		s.tenantShed(tenantOf(spec), "queue")
		s.forgetJob(job)
		s.releaseMem()
		return nil, err
	}
	s.accepted.Add(1)
	s.logf("job accepted", "job", job.ID, "tenant", tenantOf(spec), "priority", spec.Priority)
	return job, nil
}

// forgetJob removes a never-admitted job from the registry.
func (s *Server) forgetJob(job *Job) {
	s.mu.Lock()
	delete(s.jobs, job.ID)
	s.mu.Unlock()
}

func (s *Server) reserveMem() {
	if s.cfg.MemBudget > 0 {
		s.memReserved.Add(int64(s.cfg.PerJobArena))
	}
}

func (s *Server) releaseMem() {
	if s.cfg.MemBudget > 0 {
		s.memReserved.Add(-int64(s.cfg.PerJobArena))
	}
}

// Job looks a job up by id.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Jobs lists jobs (all tenants when tenant is empty), ordered by admission.
func (s *Server) Jobs(tenant string) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []*Job
	for _, j := range s.jobs {
		if tenant == "" || tenantOf(j.Spec) == tenant {
			out = append(out, j)
		}
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Drain is the graceful shutdown: stop admitting, let the fleet finish the
// queued and in-flight jobs, and — when ctx expires first — cancel what is
// still running (those jobs fail with the retryable cancel kind) and shed
// what never started. Every accepted job reaches a terminal state before
// Drain returns. Idempotent; concurrent calls share the first outcome.
func (s *Server) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() { s.drainErr = s.drain(ctx) })
	return s.drainErr
}

func (s *Server) drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	s.logf("drain started", "queued", fmt.Sprint(s.queue.Len()), "running", fmt.Sprint(s.running.Load()))

	workersDone := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(workersDone)
	}()
	var timedOut bool
	s.mu.Lock()
	started := s.started
	s.mu.Unlock()
	if started {
		select {
		case <-workersDone:
		case <-ctx.Done():
			// Deadline: abort in-flight jobs (they observe the cancellation
			// within the engine's checkpoint latency and fail retryably).
			timedOut = true
			s.cancelRun()
			<-workersDone
		}
	}
	s.cancelRun()
	// Whatever is still queued was never started: shed it, with a journal
	// terminal per job, so nothing dangles.
	for {
		it, ok := s.queue.Dequeue(context.Background())
		if !ok {
			break
		}
		job := it.Payload.(*Job)
		s.shedJob(job, "drain", shedError("daemon drained before the job started"))
	}
	if err := s.journal.Close(); err != nil {
		return err
	}
	s.logf("drain finished", "timed_out", fmt.Sprint(timedOut))
	if timedOut {
		return fmt.Errorf("server: drain deadline expired; in-flight jobs were cancelled")
	}
	return nil
}

// Draining reports whether the server has stopped admitting.
func (s *Server) Draining() bool { return s.draining.Load() }

// Stats is the daemon-level accounting snapshot. Its JSON shape is pinned
// by a golden test (statz_golden_test.go) — dashboard consumers parse it,
// so field changes must update the golden deliberately.
type Stats struct {
	Accepted    uint64         `json:"accepted"`
	Done        uint64         `json:"done"`
	Failed      uint64         `json:"failed"`
	Shed        uint64         `json:"shed"`
	Recovered   uint64         `json:"recovered"`
	Running     int64          `json:"running"`
	FleetSize   int            `json:"fleet_size"`
	Occupancy   float64        `json:"occupancy"`
	MemReserved int64          `json:"mem_reserved"`
	MemBudget   int64          `json:"mem_budget"`
	Draining    bool           `json:"draining"`
	Queue       jobqueue.Stats `json:"queue"`
	// Tenants merges queue accounting with the server's own per-tenant
	// gauges (running, shed-by-reason, fair-share deficit).
	Tenants []TenantInfo `json:"tenants"`
	// Latency summarizes the daemon histograms, keyed by stage:
	// admission, queue_wait, run, journal_append.
	Latency map[string]LatencySummary `json:"latency"`
}

// Stats snapshots the daemon counters.
func (s *Server) Stats() Stats {
	running := s.running.Load()
	occupancy := 0.0
	if s.cfg.Fleet > 0 {
		occupancy = float64(running) / float64(s.cfg.Fleet)
	}
	qs := s.queue.Stats()
	return Stats{
		Accepted:    s.accepted.Load(),
		Done:        s.done.Load(),
		Failed:      s.failed.Load(),
		Shed:        s.shed.Load(),
		Recovered:   s.recovered.Load(),
		Running:     running,
		FleetSize:   s.cfg.Fleet,
		Occupancy:   occupancy,
		MemReserved: s.memReserved.Load(),
		MemBudget:   s.cfg.MemBudget,
		Draining:    s.draining.Load(),
		Queue:       qs,
		Tenants:     s.tenantInfo(qs),
		Latency:     s.metrics.summary(),
	}
}

func (s *Server) logf(msg string, args ...any) {
	if s.cfg.Logger != nil {
		s.cfg.Logger.Info(msg, args...)
	}
}

func tenantOf(spec JobSpec) string {
	if spec.Tenant == "" {
		return "anonymous"
	}
	return spec.Tenant
}

// writerBuffer is a minimal growable byte sink for WriteBLIF.
type writerBuffer struct{ buf []byte }

func (w *writerBuffer) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}
