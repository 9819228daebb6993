package server

import (
	"cmp"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"turbosyn"
	"turbosyn/internal/bench"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// State is one position in the job lifecycle FSM:
//
//	queued -> admitted -> running -> done | failed
//	   \________________________________> shed
//
// (DESIGN.md §12 has the full diagram.) Terminal states are done, failed
// and shed; shed is reached only from queued — a job the daemon gave up
// without starting (drain deadline, unresumable recovery).
type State string

// Job states.
const (
	StateQueued   State = "queued"
	StateAdmitted State = "admitted"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateShed     State = "shed"
)

// Terminal reports whether s is a terminal state.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateShed
}

// JobSpec is the submission payload: who is asking (tenant, priority), what
// to synthesize (an inline BLIF netlist or a generator spec — exactly one),
// how (engine options), and a per-job timeout.
type JobSpec struct {
	Tenant   string `json:"tenant,omitempty"`   // default "anonymous"
	Priority int    `json:"priority,omitempty"` // higher runs first within the tenant
	// TimeoutMS bounds the job's run; 0 means the server default, and the
	// server's MaxTimeout caps it either way.
	TimeoutMS int            `json:"timeout_ms,omitempty"`
	Options   JobOptions     `json:"options,omitempty"`
	BLIF      string         `json:"blif,omitempty"`
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// JobOptions is the JSON subset of turbosyn.Options a job may set. Worker
// count is a server-side knob (fleet sizing), not a tenant one.
type JobOptions struct {
	K         int    `json:"k,omitempty"`         // LUT inputs (default 5)
	Algorithm string `json:"algorithm,omitempty"` // turbosyn | turbomap | flowsyns
	Objective string `json:"objective,omitempty"` // ratio | period
	NoPack    bool   `json:"no_pack,omitempty"`
	Mapped    bool   `json:"mapped,omitempty"` // return the mapped network, skip realization
	Strict    bool   `json:"strict,omitempty"`
	// Budgets (0 = server defaults; jobs may lower but not exceed the
	// server's per-job arena reservation).
	RothKarpBudget  int `json:"rothkarp_budget,omitempty"`
	ArenaByteBudget int `json:"arena_byte_budget,omitempty"`
}

// GeneratorSpec asks the daemon to synthesize one of the built-in benchmark
// generators instead of an uploaded netlist.
type GeneratorSpec struct {
	// Kind selects the generator: "suite" (a named circuit of the 16-case
	// evaluation suite), "fsm" (random machine from the parameters below),
	// or "multicore" (the interleaved multi-core fabric).
	Kind string `json:"kind"`
	Name string `json:"name,omitempty"` // suite circuit name; also the .model name for fsm/multicore
	Seed int64  `json:"seed,omitempty"`

	// fsm parameters.
	StateBits int  `json:"state_bits,omitempty"`
	Inputs    int  `json:"inputs,omitempty"`
	Outputs   int  `json:"outputs,omitempty"`
	Cubes     int  `json:"cubes,omitempty"`
	Span      int  `json:"span,omitempty"`
	Mealy     bool `json:"mealy,omitempty"`

	// multicore parameters.
	Cores int `json:"cores,omitempty"`
}

// buildCircuit materializes the spec's netlist. Errors are KindInvalid
// territory: the spec itself is unusable.
func (s *JobSpec) buildCircuit() (*netlist.Circuit, error) {
	switch {
	case s.BLIF != "" && s.Generator != nil:
		return nil, fmt.Errorf("job carries both a BLIF netlist and a generator spec; send exactly one")
	case s.BLIF != "":
		c, err := netlist.ReadBLIF(strings.NewReader(s.BLIF))
		if err != nil {
			return nil, fmt.Errorf("blif: %w", err)
		}
		return c, nil
	case s.Generator != nil:
		return s.Generator.build()
	default:
		return nil, fmt.Errorf("job carries neither a BLIF netlist nor a generator spec")
	}
}

// maxGeneratorNodes bounds the circuit a generator spec may describe. It
// admits several times the 100k-gate scale circuits the engine is measured
// on, and stops a spec of a few bytes from asking a worker for more memory
// than the daemon has before admission can account for it.
const maxGeneratorNodes = 1 << 20

// build checks the spec's parameters and size before anything is allocated,
// then generates the circuit.
func (g *GeneratorSpec) build() (*netlist.Circuit, error) {
	for _, p := range []struct {
		name  string
		value int
	}{
		{"state_bits", g.StateBits}, {"inputs", g.Inputs}, {"outputs", g.Outputs},
		{"cubes", g.Cubes}, {"span", g.Span}, {"cores", g.Cores},
	} {
		if p.value < 0 {
			return nil, fmt.Errorf("generator: %s = %d is negative", p.name, p.value)
		}
	}
	switch g.Kind {
	case "suite":
		for _, cs := range bench.Suite() {
			if cs.Name == g.Name {
				return cs.Circuit, nil
			}
		}
		return nil, fmt.Errorf("generator: unknown suite circuit %q", g.Name)
	case "fsm":
		spec := bench.FSMSpec{
			StateBits: g.StateBits, Inputs: g.Inputs, Outputs: g.Outputs,
			Cubes: g.Cubes, Span: g.Span, Mealy: g.Mealy,
		}
		if spec.StateBits <= 0 || spec.Cubes <= 0 || spec.Span <= 0 {
			return nil, fmt.Errorf("generator: fsm needs positive state_bits, cubes and span")
		}
		// Inputs, outputs, placeholder state buffers and one SOP per state
		// bit and output.
		n := float64(spec.Inputs) + float64(spec.Outputs) + float64(spec.StateBits) +
			(float64(spec.StateBits)+float64(spec.Outputs))*sopNodes(spec.Cubes, spec.Span)
		if err := checkNodes(n); err != nil {
			return nil, err
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("fsm-s%d", g.Seed)
		}
		rng := rand.New(rand.NewSource(g.Seed))
		return bench.FSM(rng, name, spec), nil
	case "multicore":
		if g.Cores <= 0 || g.StateBits <= 0 {
			return nil, fmt.Errorf("generator: multicore needs positive cores and state_bits")
		}
		spec := bench.MultiCoreSpec{Cores: g.Cores, StateBits: g.StateBits, Cubes: g.Cubes, Span: g.Span}
		if spec.Cubes == 0 {
			spec.Cubes = 6
		}
		if spec.Span == 0 {
			spec.Span = 6
		}
		// Eight inputs; per core its placeholder state buffers, two
		// interconnect taps, one output and one SOP per state bit.
		n := 8 + float64(spec.Cores)*(3+float64(spec.StateBits)*(1+sopNodes(spec.Cubes, spec.Span)))
		if err := checkNodes(n); err != nil {
			return nil, err
		}
		name := g.Name
		if name == "" {
			name = fmt.Sprintf("multicore-%d", g.Cores)
		}
		return bench.MultiCore(name, spec), nil
	default:
		return nil, fmt.Errorf("generator: unknown kind %q (want suite, fsm or multicore)", g.Kind)
	}
}

// sopNodes bounds the gates of one generated SOP: per cube up to span
// literals, each an inverter and a buffer or AND gate, and one OR gate. It
// is a float64 so that no parameter value can overflow the bound.
func sopNodes(cubes, span int) float64 { return float64(cubes) * (2*float64(span) + 1) }

// checkNodes rejects a generator whose node bound n exceeds
// maxGeneratorNodes.
func checkNodes(n float64) error {
	if n > maxGeneratorNodes {
		return fmt.Errorf("generator: spec describes up to %.3g nodes, over the limit of %d", n, maxGeneratorNodes)
	}
	return nil
}

// engineOptions lowers the job options onto the server's engine defaults.
// Its errors (unknown names, options Synthesize would reject) are
// KindInvalid territory, like buildCircuit's.
func (s *JobSpec) engineOptions(cfg Config) (turbosyn.Options, error) {
	o := turbosyn.Options{
		K:              s.Options.K,
		NoPack:         s.Options.NoPack,
		NoRealize:      s.Options.Mapped,
		Strict:         s.Options.Strict,
		RothKarpBudget: s.Options.RothKarpBudget,
		Workers:        cfg.WorkersPerJob,
		CacheDir:       cfg.CacheDir,
	}
	// The empty names are the defaults, as in turbosyn.Options.
	var err error
	o.Algorithm, o.Objective, err = turbosyn.ParseNames(cmp.Or(s.Options.Algorithm, "turbosyn"), cmp.Or(s.Options.Objective, "ratio"))
	if err != nil {
		return o, err
	}
	// Every job runs under the server's per-job arena reservation; a job may
	// ask for less, never more (admission reserved exactly cfg.PerJobArena).
	o.ArenaByteBudget = cfg.PerJobArena
	if b := s.Options.ArenaByteBudget; b > 0 && (o.ArenaByteBudget == 0 || b < o.ArenaByteBudget) {
		o.ArenaByteBudget = b
	}
	return o, o.Validate()
}

// timeout resolves the job's effective deadline under the server's caps.
func (s *JobSpec) timeout(cfg Config) time.Duration {
	d := time.Duration(s.TimeoutMS) * time.Millisecond
	if d <= 0 {
		d = cfg.DefaultTimeout
	}
	if cfg.MaxTimeout > 0 && d > cfg.MaxTimeout {
		d = cfg.MaxTimeout
	}
	return d
}

// ResultMeta is the summary of a finished job (the netlist itself is served
// by the result endpoint).
type ResultMeta struct {
	Phi        int    `json:"phi"`
	LUTs       int    `json:"luts"`
	Latency    []int  `json:"latency,omitempty"`
	Circuit    string `json:"circuit,omitempty"`
	Iterations int    `json:"iterations"`
	RunMS      int64  `json:"run_ms"`
	// Recovered marks a job resumed from the journal after a restart.
	Recovered bool `json:"recovered,omitempty"`
}

// Job is one accepted synthesis job and its full lifecycle record.
type Job struct {
	ID     string
	Seq    uint64
	Spec   JobSpec
	Queued time.Time

	mu     sync.Mutex
	state  State
	err    *ErrorInfo
	meta   ResultMeta
	result []byte // BLIF bytes once done

	snap atomic.Pointer[obs.Snapshot] // latest progress snapshot while running
	done chan struct{}                // closed on entering a terminal state

	// Stitched trace: rec is the job's span recorder, shared between ring
	// (the daemon's own admission/queue/journal/dispatch spans) and the
	// engine's worker rings (execJob hands rec to the engine as
	// Options.Trace), so one WriteTrace emits daemon and synthesis activity
	// on a single timeline. ring keeps obs's one-goroutine-at-a-time
	// ownership because the job itself is handed off sequentially: the
	// submitting handler writes before Enqueue, the worker after Dequeue,
	// and finishJob last — each hand-off is a happens-before edge (queue
	// mutex, state mutex). Both are nil when tracing is disabled.
	rec  *obs.Recorder
	ring *obs.Ring
	// enqueuedAt (recorder clock) anchors the queue-wait span; 0 means the
	// job never reached the queue. dispatchStart anchors the dispatch span;
	// 0 means no worker picked the job up (it was shed). started is the
	// wall-clock dispatch time feeding the run-time histogram.
	enqueuedAt    int64
	dispatchStart int64
	started       time.Time

	// Push progress fan-out (Subscribe/publish): every state change and
	// engine progress snapshot is delivered to each subscriber's bounded
	// channel, dropping the oldest buffered entry when a slow reader falls
	// behind; the terminal status is always delivered, exactly once, and
	// then the channels close.
	subMu      sync.Mutex
	subs       []*subscriber
	subsClosed bool

	// recovered marks a job re-admitted from the journal after a restart.
	recovered bool
}

// newJob builds a job; traceCap > 0 equips it with a stitched-trace
// recorder of that per-ring capacity.
func newJob(id string, seq uint64, spec JobSpec, now time.Time, traceCap int) *Job {
	j := &Job{ID: id, Seq: seq, Spec: spec, Queued: now, state: StateQueued, done: make(chan struct{})}
	if traceCap > 0 {
		j.rec = obs.NewRecorder(traceCap)
		j.ring = j.rec.NewRing("daemon")
	}
	return j
}

// traceNow reads the job's trace clock (0 when tracing is disabled).
func (j *Job) traceNow() int64 {
	if j.rec == nil {
		return 0
	}
	return j.rec.Now()
}

// setState advances the FSM (non-terminal transitions) and pushes the new
// status to progress subscribers.
func (j *Job) setState(s State) {
	j.mu.Lock()
	changed := !j.state.Terminal() && j.state != s
	if changed {
		j.state = s
	}
	j.mu.Unlock()
	if changed {
		j.publish(j.Status())
	}
}

// finish moves the job to a terminal state exactly once. The terminal
// status reaches every progress subscriber exactly once — publish closes
// the subscription channels right after delivering it.
func (j *Job) finish(s State, meta ResultMeta, blif []byte, errInfo *ErrorInfo) {
	j.mu.Lock()
	if j.state.Terminal() {
		j.mu.Unlock()
		return
	}
	j.state, j.meta, j.result, j.err = s, meta, blif, errInfo
	j.mu.Unlock()
	close(j.done)
	j.publish(j.Status())
}

// subscriber is one progress-stream listener.
type subscriber struct {
	ch      chan JobStatus
	dropped uint64
}

// Subscribe registers a push listener: the returned channel carries the
// job's current status immediately, then every subsequent state change and
// progress snapshot, and closes after the terminal status. buf bounds the
// per-subscriber buffer (<=0 = 16); a reader that falls behind loses the
// oldest buffered updates, never the terminal one. The cancel function
// detaches (and closes) the channel early; calling it after the job
// finished is a no-op.
func (j *Job) Subscribe(buf int) (<-chan JobStatus, func()) {
	if buf <= 0 {
		buf = 16
	}
	j.subMu.Lock()
	st := j.Status()
	if j.subsClosed {
		// Terminal before we subscribed: deliver the final status once and
		// close, same contract as a live subscription.
		j.subMu.Unlock()
		ch := make(chan JobStatus, 1)
		ch <- st
		close(ch)
		return ch, func() {}
	}
	sub := &subscriber{ch: make(chan JobStatus, buf)}
	sub.ch <- st
	j.subs = append(j.subs, sub)
	j.subMu.Unlock()
	return sub.ch, func() { j.unsubscribe(sub) }
}

func (j *Job) unsubscribe(sub *subscriber) {
	j.subMu.Lock()
	defer j.subMu.Unlock()
	for i, s := range j.subs {
		if s == sub {
			j.subs = append(j.subs[:i], j.subs[i+1:]...)
			close(sub.ch)
			return
		}
	}
}

// publish delivers st to every subscriber, evicting the oldest buffered
// status of a slow reader to make room (the channel never blocks the
// publisher). A terminal status also closes every subscription: after it,
// Subscribe hands new callers a pre-closed channel carrying the final
// status.
func (j *Job) publish(st JobStatus) {
	j.subMu.Lock()
	defer j.subMu.Unlock()
	if j.subsClosed {
		return
	}
	for _, sub := range j.subs {
		select {
		case sub.ch <- st:
		default:
			// Full: evict the oldest entry. Publishers are serialized under
			// subMu and the consumer only drains, so the retry cannot block.
			select {
			case <-sub.ch:
				sub.dropped++
			default:
			}
			sub.ch <- st
		}
	}
	if st.State.Terminal() {
		for _, sub := range j.subs {
			close(sub.ch)
		}
		j.subs = nil
		j.subsClosed = true
	}
}

// Snapshot returns the job's latest progress snapshot (zero before the job
// produced one).
func (j *Job) Snapshot() obs.Snapshot {
	if s := j.snap.Load(); s != nil {
		return *s
	}
	return obs.Snapshot{}
}

// Status assembles the wire representation of the job's current state.
func (j *Job) Status() JobStatus {
	j.mu.Lock()
	st := JobStatus{
		ID: j.ID, Tenant: j.Spec.Tenant, State: j.state,
		Queued: j.Queued, Error: j.err,
	}
	if j.state == StateDone {
		m := j.meta
		st.Result = &m
	}
	j.mu.Unlock()
	snap := j.Snapshot()
	if snap.RunID != "" {
		st.Progress = &snap
	}
	return st
}

// resultBytes returns the finished netlist, or false while not done.
func (j *Job) resultBytes() ([]byte, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// JobStatus is the status-endpoint JSON document.
type JobStatus struct {
	ID       string        `json:"id"`
	Tenant   string        `json:"tenant"`
	State    State         `json:"state"`
	Queued   time.Time     `json:"queued"`
	Result   *ResultMeta   `json:"result,omitempty"`
	Error    *ErrorInfo    `json:"error,omitempty"`
	Progress *obs.Snapshot `json:"progress,omitempty"`
}

// Err raises the status's failure into the engine's typed error taxonomy
// (nil when the job has not failed). See ErrorInfo.Err.
func (s *JobStatus) Err() error { return s.Error.Err() }
