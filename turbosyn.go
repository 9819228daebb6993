// Package turbosyn reproduces "FPGA Synthesis with Retiming and Pipelining
// for Clock Period Minimization of Sequential Circuits" (Cong & Wu, DAC
// 1997): K-LUT technology mapping of sequential circuits that minimizes the
// clock period under retiming (TurboMap), or the maximum delay-to-register
// ratio under retiming plus pipelining with sequential functional
// decomposition (TurboSYN), plus the FlowSYN-s baseline used in the paper's
// evaluation.
//
// The typical flow:
//
//	c, _ := turbosyn.ReadBLIF(file)
//	res, _ := turbosyn.Synthesize(c, turbosyn.Options{K: 5})
//	fmt.Println(res.Phi, res.LUTs)      // achieved MDR ratio, LUT count
//	turbosyn.WriteBLIF(out, res.Realized)
//
// Synthesize K-bounds the input if needed, runs the selected algorithm,
// optionally packs LUTs for area, and realizes the target by retiming (and
// pipelining, for the ratio objective).
package turbosyn

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"time"

	"turbosyn/internal/core"
	"turbosyn/internal/decomp"
	"turbosyn/internal/logic"
	"turbosyn/internal/mapper"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
	"turbosyn/internal/retime"
)

// Circuit is a sequential circuit in retiming-graph form; see the builder
// methods AddPI, AddGate, AddPO and the BLIF readers.
type Circuit = netlist.Circuit

// Fanin is one input connection of a node: driving node and register count.
type Fanin = netlist.Fanin

// NewCircuit returns an empty circuit.
func NewCircuit(name string) *Circuit { return netlist.NewCircuit(name) }

// ReadBLIF parses a BLIF netlist (.model/.inputs/.outputs/.names/.latch).
func ReadBLIF(r io.Reader) (*Circuit, error) { return netlist.ReadBLIF(r) }

// WriteBLIF writes a circuit in BLIF, expanding edge weights into latches.
func WriteBLIF(w io.Writer, c *Circuit) error { return netlist.WriteBLIF(w, c) }

// Algorithm selects the synthesis engine.
type Algorithm int

// Available algorithms, in increasing order of optimization power on
// sequential circuits.
const (
	// TurboSYN (default): label computation with retiming and sequential
	// functional decomposition; minimizes the MDR ratio (the paper's
	// contribution).
	TurboSYN Algorithm = iota
	// TurboMap: structural label computation with retiming only.
	TurboMap
	// FlowSYNS: cut at registers, map islands with FlowSYN, merge (the
	// baseline the paper compares against).
	FlowSYNS
)

func (a Algorithm) String() string {
	switch a {
	case TurboSYN:
		return "TurboSYN"
	case TurboMap:
		return "TurboMap"
	case FlowSYNS:
		return "FlowSYN-s"
	}
	return fmt.Sprintf("Algorithm(%d)", int(a))
}

// Objective selects what Phi means.
type Objective int

// Objectives.
const (
	// MinRatio minimizes the MDR ratio: the clock period achievable when
	// both retiming and pipelining are allowed (the paper's Problem 1).
	MinRatio Objective = iota
	// MinPeriod minimizes the clock period under retiming alone
	// (behaviour-preserving; no added latency).
	MinPeriod
)

// algorithmNames and objectiveNames are the names the turbosyn command's
// -alg and -objective flags and turbosynd job options give the algorithms
// and objectives.
var (
	algorithmNames = map[string]Algorithm{"turbosyn": TurboSYN, "turbomap": TurboMap, "flowsyns": FlowSYNS}
	objectiveNames = map[string]Objective{"ratio": MinRatio, "period": MinPeriod}
)

// ParseNames returns the algorithm named alg ("turbosyn", "turbomap" or
// "flowsyns") and the objective named objective ("ratio" or "period").
func ParseNames(alg, objective string) (Algorithm, Objective, error) {
	a, ok := algorithmNames[alg]
	if !ok {
		return 0, 0, fmt.Errorf("unknown algorithm %q", alg)
	}
	o, ok := objectiveNames[objective]
	if !ok {
		return 0, 0, fmt.Errorf("unknown objective %q", objective)
	}
	return a, o, nil
}

// Options configures Synthesize. The zero value requests the paper's
// defaults: TurboSYN, K = 5, resynthesis cuts up to 15 inputs, PLD on, MDR
// objective, packing and realization enabled.
type Options struct {
	K         int
	Algorithm Algorithm
	Objective Objective
	// NoPack skips the area post-pass.
	NoPack bool
	// NoRealize skips the final retiming/pipelining step; Result.Realized
	// is then nil and only the mapped network is returned.
	NoRealize bool
	// Workers bounds the worker pool of the parallel label engine; the phi
	// search runs one probe at a time on the whole pool. 0 means
	// runtime.NumCPU(), 1 forces the sequential path. Results are
	// bit-identical for every setting; some Stats counters are exact only
	// at 1 (see core.Options.Workers).
	Workers int
	// CacheDir, when non-empty, persists the decomposition cache across runs
	// under this directory (created if missing): the engine loads the cache
	// log at start and appends this run's new outcomes at the end. A warm
	// cache skips the Roth-Karp searches and changes nothing but speed —
	// results are bit-identical to a cold run; corrupt or version-skewed
	// logs are discarded cleanly. See core.Options.CacheDir and DESIGN.md §9.
	CacheDir string

	// Resource budgets (0 = unlimited). By default exhausting a budget
	// degrades gracefully: the affected node keeps its structural cover, the
	// event is counted in Stats.Degradations, and the mapping stays valid —
	// at worst less optimized. See core.Options and DESIGN.md
	// ("Cancellation, budgets, and fault containment").

	// RothKarpBudget caps the bound-set candidates examined per
	// decomposition attempt.
	RothKarpBudget int
	// ArenaByteBudget caps each worker scratch arena's retained footprint.
	ArenaByteBudget int
	// Strict turns every budget degradation into a *BudgetError instead of
	// a silent quality loss.
	Strict bool

	// Observability (DESIGN.md §8). Everything below is off by default;
	// when off, each engine hook costs one pointer check and the results
	// are bit-identical with and without it.

	// Trace, when non-nil, records engine spans (probes, SCC component
	// tasks, expand/flow/decompose/PLD stages, cache traffic, degradations,
	// cancellation) into per-worker ring buffers. Export the retained spans
	// with Trace.WriteTrace after Synthesize returns — including after a
	// *CancelError or *InternalError abort; every goroutine is joined before
	// the public API returns, so the rings are always complete.
	Trace *TraceRecorder
	// Progress, when non-nil, receives rate-limited progress snapshots from
	// a dedicated reporter goroutine: one per ProgressInterval, one per
	// phase change, and exactly one final snapshot with Done set on every
	// exit path (success, cancellation, contained panic). The callback must
	// not call back into this package.
	Progress func(ProgressSnapshot)
	// ProgressInterval is the snapshot period (0 = 500ms).
	ProgressInterval time.Duration
	// Logger, when non-nil, receives structured run logs: phase changes and
	// totals at Info, per-probe verdicts at Debug. The run id and circuit
	// name are attached to every record.
	Logger *slog.Logger
	// RunID tags logs, traces and metrics of this run; empty means a fresh
	// random id is generated when any observability sink is configured.
	RunID string
}

// Observability types, re-exported from the internal obs package.
type (
	// TraceRecorder collects spans for Chrome/Perfetto trace export; create
	// one with NewTraceRecorder and pass it as Options.Trace.
	TraceRecorder = obs.Recorder
	// ProgressSnapshot is one progress report: run identity, phase, best
	// phi so far, live work counters, and Done/Err on the final snapshot.
	ProgressSnapshot = obs.Snapshot
	// Metrics republishes the latest ProgressSnapshot as an expvar value
	// and a Prometheus text-format http.Handler; wire its Update method as
	// Options.Progress.
	Metrics = obs.Metrics
)

// NewTraceRecorder returns a span recorder with the default per-worker ring
// capacity; ringCap overrides it when positive (each ring retains the most
// recent ringCap events, counting older ones as dropped).
func NewTraceRecorder(ringCap int) *TraceRecorder { return obs.NewRecorder(ringCap) }

// Structured errors surfaced by Synthesize. CancelError wraps
// context cancellation (errors.Is reaches context.Canceled /
// context.DeadlineExceeded through it) and carries the aborting phase, the
// best feasible phi proven before the abort and the partial statistics;
// InternalError is a panic contained at a worker boundary; BudgetError is a
// resource budget exhausted under Options.Strict.
type (
	CancelError   = core.CancelError
	InternalError = core.InternalError
	BudgetError   = core.BudgetError
)

// Validate reports the error Synthesize would return for these options
// before doing any work, so a caller that accepts options from elsewhere (a
// job spec, a config file) can reject them as malformed input.
func (o Options) Validate() error { return o.fill().validate() }

// validate rejects malformed options up front with descriptive errors, so
// misconfiguration fails fast instead of surfacing as a panic or a silent
// misbehavior deep inside the label engine. Called after fill, so zero
// values have already been resolved to defaults.
func (o Options) validate() error {
	if o.K < 2 {
		return fmt.Errorf("turbosyn: K = %d is too small: a LUT needs at least 2 inputs", o.K)
	}
	if o.K > logic.MaxVars {
		return fmt.Errorf("turbosyn: K = %d exceeds the %d-input limit of the truth-table representation", o.K, logic.MaxVars)
	}
	if o.Workers < 0 {
		return fmt.Errorf("turbosyn: Workers = %d is negative; use 0 for all CPUs or 1 for sequential", o.Workers)
	}
	if o.RothKarpBudget < 0 || o.ArenaByteBudget < 0 {
		return fmt.Errorf("turbosyn: resource budgets must be non-negative (0 = unlimited); got RothKarpBudget=%d ArenaByteBudget=%d",
			o.RothKarpBudget, o.ArenaByteBudget)
	}
	if o.Algorithm == FlowSYNS && o.Objective == MinPeriod {
		return fmt.Errorf("turbosyn: FlowSYN-s supports only the MinRatio objective")
	}
	if o.ProgressInterval < 0 {
		return fmt.Errorf("turbosyn: ProgressInterval = %v is negative; use 0 for the default reporting period", o.ProgressInterval)
	}
	return nil
}

// Result is the outcome of Synthesize.
type Result struct {
	// Phi is the achieved objective value: minimum MDR ratio (MinRatio)
	// or minimum clock period (MinPeriod).
	Phi int
	// LUTs counts the K-LUTs of the mapped network (after packing).
	LUTs int
	// Mapped is the LUT network before retiming: cycle-accurate equivalent
	// to the input (given aligned initial states; see sim.CompareAligned).
	Mapped *Circuit
	// OrigOf maps Mapped's nodes to input-circuit nodes (stream identity),
	// -1 where none; used for initial-state alignment.
	OrigOf []int
	// Realized is the retimed (and, under MinRatio, pipelined) network
	// achieving clock period Phi; nil when NoRealize is set.
	Realized *Circuit
	// Latency lists per primary output the pipeline latency added during
	// realization (all zeros for MinPeriod).
	Latency []int
	// Stats reports the label-computation work.
	Stats core.Stats
	// Algorithm echoes the engine used.
	Algorithm Algorithm
	// RunID identifies the run in logs, traces and metrics; empty when no
	// observability sink was configured.
	RunID string
}

func (o Options) fill() Options {
	if o.K == 0 {
		o.K = 5
	}
	return o
}

// Synthesize runs the full flow on c: K-bounding (if needed), mapping with
// the selected algorithm and objective, LUT packing and realization by
// retiming/pipelining.
func Synthesize(c *Circuit, o Options) (*Result, error) {
	return SynthesizeContext(context.Background(), c, o)
}

// SynthesizeContext is Synthesize under a context: NewEngine, the engine's
// SynthesizeContext and Close. Cancellation or deadline expiry aborts the
// synthesis at the next engine checkpoint — the label engine polls an
// atomic flag at sweep granularity, so the abort lands well under a second
// even on large circuits — and returns a *CancelError that wraps the
// context's error and carries the aborting phase, the best feasible phi
// proven so far and the partial work statistics.
func SynthesizeContext(ctx context.Context, c *Circuit, o Options) (*Result, error) {
	e, err := NewEngine(c, o)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.SynthesizeContext(ctx)
}

// kBoundFor returns c itself when already K-bounded, or the structural
// decomposition bounding every gate fanin by k.
func kBoundFor(c *Circuit, k int) (*Circuit, error) {
	if c.IsKBounded(k) {
		return c, nil
	}
	return decomp.KBound(c, k)
}

// coreOptions lowers the public Options into the core engine's option set.
// pg and logger are the run-scoped observability sinks (the logger already
// carries the run id); both may be nil.
func (o Options) coreOptions(pg *obs.Progress, logger *slog.Logger) core.Options {
	co := core.Options{
		K:               o.K,
		Decompose:       o.Algorithm == TurboSYN,
		PLD:             true,
		Pipelined:       o.Objective == MinRatio,
		Workers:         o.Workers,
		CacheDir:        o.CacheDir,
		RothKarpBudget:  o.RothKarpBudget,
		ArenaByteBudget: o.ArenaByteBudget,
		Strict:          o.Strict,
		Trace:           o.Trace,
		Progress:        pg,
		Logger:          logger,
	}
	if o.Algorithm == FlowSYNS {
		co = mapper.IslandOptions(co)
	}
	return co
}

// phaseCancelled converts a done context into a *CancelError for a
// post-search phase; the partial Result so far supplies the best phi and
// statistics.
func phaseCancelled(ctx context.Context, phase string, partial *Result) error {
	if err := ctx.Err(); err != nil {
		return &CancelError{Phase: phase, BestPhi: partial.Phi, Stats: partial.Stats, Err: err}
	}
	return nil
}

// remapOrigins converts stream origins pointing into the K-bounded circuit
// back to the caller's circuit via node names; K-bounding keeps original
// gate names and adds fresh '$'-suffixed helpers (which have no original
// counterpart and map to -1).
func remapOrigins(origOf []int, bounded, orig *Circuit) []int {
	out := make([]int, len(origOf))
	for i, b := range origOf {
		out[i] = -1
		if b < 0 {
			continue
		}
		name := bounded.Nodes[b].Name
		if name == "" {
			continue
		}
		if id := orig.IDByName(name); id >= 0 {
			out[i] = id
		}
	}
	return out
}

// ClockPeriod returns the clock period of a circuit as-is (unit delay per
// gate/LUT): the longest register-free path.
func ClockPeriod(c *Circuit) int { return retime.Period(c) }

// MDRRatio returns the exact maximum delay-to-register ratio of c as a
// reduced fraction (0/1 when acyclic).
func MDRRatio(c *Circuit) (num, den int64) { return retime.MaxCycleRatio(c) }

// KBound returns a functionally equivalent circuit with gate fanins at most
// k (structural tree decomposition of wide gates).
func KBound(c *Circuit, k int) (*Circuit, error) { return decomp.KBound(c, k) }
