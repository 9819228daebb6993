// Package core implements the paper's contribution: the TurboMap and
// TurboSYN label computations for K-LUT technology mapping of sequential
// circuits under retiming (TurboMap) and under retiming + pipelining with
// sequential functional decomposition (TurboSYN), together with the
// positive loop detection (PLD) that replaces the n^2 stopping rule with a
// grounding certificate checked once per sweep (it fires once every member
// of a pumping loop sits far enough above the loop's external support), and
// the mapping generation that turns converged labels into a LUT network.
//
// For a target clock period / MDR ratio phi, node labels l are the optimal
// LUT-level sequential arrival times: l(PI) = 0, and for a gate v,
//
//	l(v) = min over LUTs rooted at v of max over LUT inputs u^w of
//	       l(u) - phi*w + 1,
//
// computed by the Pan–Liu style monotone lower-bound iteration: start at 1,
// set L(v) = max over fanin edges of l(u) - phi*w(e), and raise l(v) to L(v)
// when a K-feasible cut of height <= L(v) exists in the expanded circuit
// E_v (TurboSYN additionally tries to resynthesize wider, lower cuts via
// Roth–Karp decomposition), and to L(v)+1 otherwise. The iteration either
// converges (phi is achievable; pipelined objectives need nothing more,
// clock-period objectives also require l(po) <= phi at every output) or
// grows without bound (a critical loop beats phi).
package core

import (
	"fmt"
	"log/slog"
	"runtime"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// cmax bounds the width of resynthesis cuts: 15, as in the paper (at most
// logic.MaxVars, the width of the function representation).
const cmax = 15

// maxH bounds how far below L(v) the decomposition searches for cuts (the
// paper iterates h = 0, 1, ...).
const maxH = 4

// prioSlack is how far below a resynthesis cut's height L-h the bound-set
// priority stops telling leaf arrivals apart (see leafPriority). 2, chosen
// on the full suite: 1 was faster but lost TurboSYN a period on sand.
const prioSlack = 2

// Options configures the label computation and mapping generation.
type Options struct {
	// K is the LUT input count (default 5).
	K int
	// LowDepth is the structural checks' expansion depth through cut
	// candidates (0 means the default of 3; pass a negative value for the
	// strict TurboMap frontier that stops at the first candidate). It also
	// governs cut witnesses. Resynthesis cuts ignore it: tryDecompose always
	// expands to the strict frontier.
	LowDepth int
	// MaxExpand caps a single expansion (0 means expand.DefaultMaxNodes,
	// 50,000 replicas). Bigger caps only matter for exotic cuts: when an
	// expansion overflows, the label rounds up — always valid, at worst
	// slightly suboptimal. A fast-pass decision answered by a cut witness
	// builds no expansion, so it cannot overflow: under a tiny cap it may
	// realize a label the capped expansion would have rounded up, which is
	// just as valid and never worse.
	MaxExpand int
	// Decompose enables TurboSYN's sequential functional decomposition;
	// false gives TurboMap. The paper's label relaxation for area is left
	// out (DESIGN.md, "Deviation: no label relaxation").
	Decompose bool
	// PLD enables positive loop detection: a component stops as infeasible
	// once no member is grounded, that is, once every member's L(v) sits
	// far enough above the best support entering the component (DESIGN.md,
	// "PLD"). Without it, infeasible targets fall back to the conservative
	// per-SCC n^2 bound.
	PLD bool
	// Pipelined selects the MDR-ratio objective (critical loops only);
	// false selects the clock-period objective (outputs must meet phi too).
	Pipelined bool
	// IterBudget, when positive, aborts a probe (reporting infeasible)
	// once the label computation exceeds this many iterations. Used by the
	// ablation harness to bound the conservative n^2 stopping rule; every
	// probe is cold, so each counts iterations from the initial labels.
	IterBudget int
	// Workers bounds the worker pool of the dataflow component scheduler
	// that runs each probe's label computation: 0 means runtime.NumCPU(),
	// 1 forces the strictly sequential path. The binary search runs one
	// probe at a time whatever Workers says, and every probe gets the whole
	// pool. Every setting computes bit-identical labels, covers and verdicts
	// (see DESIGN.md, "Dataflow scheduling"), but not bit-identical Stats.
	// Concurrent components are the only source of timing-dependent
	// counters: above 1, the counters that depend on which task fills a
	// shared decomposition-cache entry first (BoundSetsExamined,
	// RothKarpCalls, ShannonSplits, DisjointPeels and the cache hit/miss
	// counters) vary with timing even on feasible runs; every work counter
	// of an infeasible probe varies with when sibling tasks notice the
	// failure; and the concurrency counters describe the schedule itself.
	// Stats are exact and repeatable only at Workers 1, where each probe
	// runs one component at a time. A positive IterBudget implies
	// sequential execution regardless of Workers, so budget accounting
	// stays globally ordered.
	Workers int

	// Resource budgets (0 = unlimited). Exhausting a budget never aborts
	// the run by default: the affected node falls back to the structural
	// feasibility check (its resynthesis attempt is skipped or truncated),
	// the event is counted in Stats.Degradations, and the mapping stays
	// valid — at worst less optimized. With no budget tripped, results are
	// bit-identical to an unbudgeted run. See DESIGN.md, "Cancellation,
	// budgets, and fault containment".

	// RothKarpBudget caps the bound-set candidates examined per
	// decomposition attempt (the time lever on the window scan).
	RothKarpBudget int
	// CacheDir, when non-empty, makes the decomposition cache persistent
	// across runs: a compact append-only log under this directory is loaded
	// at engine start and appended (this run's new non-degraded outcomes) at
	// shutdown. Entries are keyed by the NPN-canonical cone function plus
	// everything else DecomposeEffort depends on, so a warm cache changes nothing
	// but speed — results are bit-identical to a cold run. Corrupt, truncated
	// or version-mismatched logs are discarded cleanly (the run starts cold),
	// and concurrent runs may share one directory: appends are atomic
	// whole-record writes and the loader skips anything torn. See DESIGN.md
	// §9.
	CacheDir string

	// ArenaByteBudget caps a worker scratch arena's retained footprint:
	// after a component whose arena exceeds it, the arena is released back
	// to the allocator (results are unaffected — arenas are pure scratch —
	// but the warm-path allocation savings are lost for that worker).
	ArenaByteBudget int
	// Strict turns every budget degradation into a *BudgetError instead of
	// a silent quality loss: exhausted budgets abort the run.
	Strict bool

	// Observability (all disabled by default; none of it changes results —
	// the engine is bit-identical with every combination on or off, and the
	// hooks cost one pointer check each when off. See DESIGN.md §8).

	// Trace, when non-nil, records probe/component/stage spans and cache,
	// degradation and cancellation events into per-worker ring buffers for
	// Chrome/Perfetto export (Recorder.WriteTrace). Spans are flushed on
	// every exit path, including *CancelError / *InternalError aborts.
	Trace *obs.Recorder
	// Progress, when non-nil, is the run's progress tracker: the engine
	// installs its live-counter sampler and reports phase transitions and
	// best-phi improvements through it. The caller owns Start/Finish.
	Progress *obs.Progress
	// Logger, when non-nil, receives structured run/probe-granularity log
	// records (never per-node events). Attach run-identifying fields with
	// Logger.With before passing it in.
	Logger *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.K == 0 {
		o.K = 5
	}
	switch {
	case o.LowDepth < 0:
		o.LowDepth = 0 // explicit "stop at the first candidate frontier"
	case o.LowDepth == 0:
		o.LowDepth = 3
	}
	return o
}

// workerCount resolves Workers to an effective pool size.
func (o Options) workerCount() int {
	switch {
	case o.Workers > 0:
		return o.Workers
	case o.Workers < 0:
		return 1
	}
	return runtime.NumCPU()
}

// DefaultOptions returns the TurboSYN defaults used by the paper's
// experiments (K=5, Cmax=15, PLD on, pipelined MDR objective).
func DefaultOptions() Options {
	return Options{Decompose: true, PLD: true, Pipelined: true}.withDefaults()
}

// Stats counts the work a run performed. Every probe is cold: its label
// work is a function of (circuit, phi, options), and a Minimize run's is
// exactly the sum of its search probes' (its mapping is generated from the
// best probe's state, with no further probe). Results never depend on
// Options.Workers, but above 1 worker some counters do: the decomposition
// cache and Roth-Karp counters, every work counter of an infeasible probe,
// and the concurrency counters. Every counter is exact only at Workers 1
// (see Options.Workers).
type Stats struct {
	Iterations     int // label-update passes (over SCC members)
	CutChecks      int // structural K-cut decisions (flow or witness)
	CutWitnessHits int // structural decisions answered by a cut witness
	Decompositions int // successful sequential decompositions
	DecompAttempts int // attempted sequential decompositions
	PLDChecks      int // grounding checks (one per PLD sweep of a component)
	PLDHits        int // components certified infeasible by the grounding check

	// Arena effectiveness counters (see DESIGN.md).
	ExpandBuilds   int // expansions built from scratch
	ExpandReuses   int // expansions served by in-place Tighten/Loosen
	ArenaPeakBytes int // high-water footprint of the busiest scratch arena

	// Engine arena-pool effectiveness: how many worker arenas this run
	// checked out of its engine's pool, and how many of those came warm
	// from the pool instead of being created.
	ArenaCheckouts int
	ArenaPoolHits  int

	// BoundSetsExamined counts the candidate bound sets Roth-Karp window
	// scans actually examined (decomposition-cache hits replay none); the
	// per-attempt counts also annotate decompose spans in exported traces.
	BoundSetsExamined int

	// Decomposition-tier counters: how tryDecompose outcomes were produced.
	// RothKarpCalls counts full Roth-Karp window scans actually entered (the
	// expensive tier; cache hits and cheaper tiers contribute none — the
	// warm-cache CI gate pins its skip rate on this counter). ShannonSplits
	// and DisjointPeels count decompositions settled by the cheaper
	// cofactor-split and same-op-literal-peeling tiers.
	RothKarpCalls int
	ShannonSplits int
	DisjointPeels int

	// Degradations counts budget exhaustions absorbed by graceful
	// degradation: nodes whose resynthesis was truncated by RothKarpBudget,
	// and arenas released by ArenaByteBudget.
	// Always 0 when no budget is configured. Under Options.Strict the first
	// would-be degradation aborts the run with a *BudgetError instead.
	Degradations int

	// Concurrency counters (see Options.Workers), counted live in the
	// call's counter set (obs.go) and folded in once per entry point.
	Workers            int // effective worker-pool size (1 = sequential)
	ParallelTasks      int // SCC tasks pulled from the dataflow ready queue
	InlineTasks        int // trivial components chained inline (taskGrain batching)
	QueueDepthPeak     int // ready-queue depth high-water mark
	WorkerOccupancy    int // peak simultaneously busy pool workers
	CacheShardHits     int // sharded decomposition-cache hits
	CacheShardMisses   int // sharded decomposition-cache misses
	CachePersistedHits int // hits served by entries loaded from a CacheDir log
	CacheNPNHits       int // hits reached through a non-identity NPN transform
	ProbesLaunched     int // probes started: one per search step or FeasibleContext call
	// ProbesCancelled is always 0: the search runs one probe at a time and
	// never abandons one. The field stays because tools that read Stats
	// (the repository benchmark among them) report it.
	ProbesCancelled int

	// Worklist convergence accounting (see DESIGN.md §11). SweepNodeVisits
	// counts the member visits label sweeps actually performed; DirtySkips
	// counts the visits the dirty-set worklist elided because no predecessor
	// label had changed since the member's last decision;
	// WorklistPeak is the largest number of members any single fast pass
	// drained — the worklist analogue of QueueDepthPeak.
	SweepNodeVisits int
	DirtySkips      int
	WorklistPeak    int

	// Trace-recorder accounting (zero when Options.Trace is nil).
	TraceEvents  int // events recorded across all per-worker rings
	TraceDropped int // events overwritten by ring wrap (lost from the trace)
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.Iterations += s2.Iterations
	s.CutChecks += s2.CutChecks
	s.CutWitnessHits += s2.CutWitnessHits
	s.Decompositions += s2.Decompositions
	s.DecompAttempts += s2.DecompAttempts
	s.PLDChecks += s2.PLDChecks
	s.PLDHits += s2.PLDHits
	s.ExpandBuilds += s2.ExpandBuilds
	s.ExpandReuses += s2.ExpandReuses
	if s2.ArenaPeakBytes > s.ArenaPeakBytes {
		s.ArenaPeakBytes = s2.ArenaPeakBytes
	}
	s.ArenaCheckouts += s2.ArenaCheckouts
	s.ArenaPoolHits += s2.ArenaPoolHits
	s.BoundSetsExamined += s2.BoundSetsExamined
	s.RothKarpCalls += s2.RothKarpCalls
	s.ShannonSplits += s2.ShannonSplits
	s.DisjointPeels += s2.DisjointPeels
	s.Degradations += s2.Degradations
	if s2.Workers > s.Workers {
		s.Workers = s2.Workers
	}
	s.ParallelTasks += s2.ParallelTasks
	s.InlineTasks += s2.InlineTasks
	if s2.QueueDepthPeak > s.QueueDepthPeak {
		s.QueueDepthPeak = s2.QueueDepthPeak
	}
	if s2.WorkerOccupancy > s.WorkerOccupancy {
		s.WorkerOccupancy = s2.WorkerOccupancy
	}
	s.CacheShardHits += s2.CacheShardHits
	s.CacheShardMisses += s2.CacheShardMisses
	s.CachePersistedHits += s2.CachePersistedHits
	s.CacheNPNHits += s2.CacheNPNHits
	s.ProbesLaunched += s2.ProbesLaunched
	s.ProbesCancelled += s2.ProbesCancelled
	s.SweepNodeVisits += s2.SweepNodeVisits
	s.DirtySkips += s2.DirtySkips
	if s2.WorklistPeak > s.WorklistPeak {
		s.WorklistPeak = s2.WorklistPeak
	}
	if s2.TraceEvents > s.TraceEvents {
		s.TraceEvents = s2.TraceEvents
	}
	if s2.TraceDropped > s.TraceDropped {
		s.TraceDropped = s2.TraceDropped
	}
}

// Replica is a node of an expanded circuit recorded in a cover: circuit
// node Orig observed through W registers.
type Replica struct {
	Orig int
	W    int
}

// Result is a complete mapping run outcome.
type Result struct {
	// Phi is the search's target (clock period or MDR ratio): the smallest
	// phi whose labels converged. Mapped meets it and may beat it; the
	// turbosyn engine reports the period Mapped itself achieves.
	Phi int
	// Labels holds the converged labels at Phi.
	Labels []int
	// Mapped is the K-LUT network, cycle-accurate equivalent to the input
	// (registers still in their label-implied positions; retime it to
	// realize Phi).
	Mapped *netlist.Circuit
	// LUTs is the LUT count of Mapped.
	LUTs int
	// OrigOf maps each node of Mapped to the input-circuit node whose
	// output stream it reproduces: PIs to PIs, root LUTs to the covered
	// gates, POs to POs; decomposition-internal LUTs have -1 (they never
	// source registers). Used for initial-state alignment (sim package).
	OrigOf []int
	// Stats accumulates work over every probe of the search.
	Stats Stats
}

func validateInput(c *netlist.Circuit, opts Options) error {
	if err := c.Check(); err != nil {
		return err
	}
	if opts.K < 2 {
		return fmt.Errorf("core: K = %d is too small (need K >= 2)", opts.K)
	}
	if opts.K > logic.MaxVars {
		return fmt.Errorf("core: K = %d exceeds the %d-input limit of the function representation",
			opts.K, logic.MaxVars)
	}
	if !c.IsKBounded(opts.K) {
		return fmt.Errorf("core: circuit %s is not %d-bounded (max fanin %d); run decomp.KBound first",
			c.Name, opts.K, c.MaxFanin())
	}
	return nil
}
