package core

import (
	"context"
	"fmt"

	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// The package-level entry points are thin wrappers over a throwaway Engine:
// the engine owns the circuit analysis, the decomposition cache (with the
// persisted log, when configured) and the arena pool for exactly one call,
// and its Close flushes the log on every exit path. Results are bit-identical
// to the pooled path — the engine methods are the same code.

// Feasible decides Problem 2: does a mapping with clock period (or, when
// opts.Pipelined, MDR ratio) at most phi exist? It returns the probe's work
// statistics alongside.
func Feasible(c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	return FeasibleContext(context.Background(), c, phi, opts)
}

// FeasibleContext is Feasible under a context: cancellation or deadline
// expiry aborts the probe between sweeps (and within long sweeps) and
// returns a *CancelError wrapping the context's error, with the partial
// work statistics attached.
func FeasibleContext(ctx context.Context, c *netlist.Circuit, phi int, opts Options) (bool, Stats, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return false, Stats{}, err
	}
	defer e.Close()
	return e.FeasibleContext(ctx, phi, opts)
}

// MapAtRatio computes labels and a mapped LUT network for a specific
// feasible phi. It fails if phi is infeasible.
func MapAtRatio(c *netlist.Circuit, phi int, opts Options) (*Result, error) {
	return MapAtRatioContext(context.Background(), c, phi, opts)
}

// MapAtRatioContext is MapAtRatio under a context (see FeasibleContext).
func MapAtRatioContext(ctx context.Context, c *netlist.Circuit, phi int, opts Options) (*Result, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MapAtRatioContext(ctx, phi, opts)
}

// Minimize finds the minimum feasible phi by binary search and returns the
// mapping at that phi. The upper bound follows the paper: the trivial
// one-gate-per-LUT mapping achieves the current clock period, and for the
// MDR objective TurboMap's minimum clock period is itself an upper bound
// (computed first when opts.Decompose is set, mirroring "first run TurboMap
// to get an upper bound UB").
func Minimize(c *netlist.Circuit, opts Options) (*Result, error) {
	return MinimizeContext(context.Background(), c, opts)
}

// MinimizeContext is Minimize under a context. Cancellation or deadline
// expiry aborts the search at the next checkpoint — probes poll an atomic
// flag at sweep granularity, so the abort lands well under a second even on
// large circuits — and returns a *CancelError carrying the phase that
// observed it, the best feasible phi proven so far (-1 when none) and the
// partial work statistics.
func MinimizeContext(ctx context.Context, c *netlist.Circuit, opts Options) (*Result, error) {
	e, err := NewEngine(c, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	return e.MinimizeContext(ctx, opts)
}

// warmUseful reports whether labels converged at seedPhi should seed a
// probe at phi. Seeding is always sound (the seed lower-bounds the probe's
// fixpoint), but its payoff decays with distance: far below seedPhi the
// bound is loose while it still pushes the very first sweeps into large
// expansions, where K-cut checks are most expensive — on small circuits a
// distant infeasible probe runs measurably slower warm than cold (bbara's
// TurboMap probe at phi=1 seeded from phi=3 nearly doubles its cut checks).
// Probes within a factor of two of their seed keep the measured benefit, so
// the gate skips only the far ones.
func warmUseful(phi, seedPhi int) bool {
	return 2*phi >= seedPhi
}

// minimizeSearch binary-searches the smallest feasible phi in [1, ub] for
// call c; ub must be feasible. Each step decides Problem 2 at the midpoint
// with one probe, run inline on the calling goroutine with the call's whole
// worker pool for the dataflow component scheduler. total accumulates the
// work of every probe.
//
// Once a probe is feasible, later probes warm-start from the labels of the
// latest feasible one (subject to the warmUseful distance gate). A positive
// IterBudget keeps every probe cold, so the n^2 ablation counts iterations
// from the initial labels.
//
// On an aborting error the returned phi is the best feasible one proven
// before the abort (-1 when none), so the caller can report partial
// progress.
func (e *Engine) minimizeSearch(ub int, opts Options, c *call, total *Stats) (int, error) {
	var ring *obs.Ring
	if opts.Trace != nil {
		ring = opts.Trace.NewRing("search")
	}
	// Warm-start store: every probe targets a phi strictly below the best
	// feasible one so far, so the latest feasible probe's labels always
	// qualify as a seed.
	var warmLabels []int
	warmPhi := 0

	lo, hi, best := 1, ub, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		seed := warmLabels
		if opts.IterBudget > 0 || !warmUseful(mid, warmPhi) {
			seed = nil
		}
		ok, st, labels, err := e.probe(ring, mid, opts, c, seed, warmPhi)
		total.Add(st)
		if err != nil {
			return best, err
		}
		if ok {
			best = mid
			opts.Progress.SetBestPhi(mid)
			warmLabels, warmPhi = labels, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if best < 0 {
		return -1, fmt.Errorf("core: no feasible target up to %d for %s (is the upper bound wrong?)",
			ub, e.c.Name)
	}
	return best, nil
}

// probe decides feasibility at phi for call c, warm-started from seed
// (labels converged at seedPhi) when seed is non-nil. When feasible it
// returns a copy of the converged labels, the seed for later probes. The
// probe's span goes to ring (when non-nil) and its log line to
// opts.Logger.
//
// Fault containment: a panic that escapes the label engine's own
// per-component boundary becomes an InternalError instead of killing the
// process, and is recorded on the state so checkin poisons its arenas —
// nothing about the probe's scratch can be trusted after it.
func (e *Engine) probe(ring *obs.Ring, phi int, opts Options, c *call, seed []int, seedPhi int) (ok bool, st Stats, labels []int, err error) {
	var t0 int64
	if ring != nil {
		t0 = ring.Now()
	}
	s := e.checkoutState(phi, opts, c)
	defer e.checkinState(s)
	defer func() {
		if r := recover(); r != nil {
			ok, err = false, newInternalError(r, "probe", -1, -1)
			s.fails.fail(err)
		}
		if ring != nil {
			ring.Span(obs.OpProbe, t0, int64(phi), probeVerdict(ok, err))
		}
		if opts.Logger != nil {
			opts.Logger.Debug("probe", "phi", phi, "feasible", ok,
				"iterations", st.Iterations, "cutChecks", st.CutChecks, "err", err)
		}
	}()
	if seed != nil {
		s.seedLabels(seed, seedPhi)
	}
	ok, err = s.run()
	st = s.stats
	if ok {
		// Copy out before the deferred checkin recycles the state.
		labels = append([]int(nil), s.labels...)
	}
	return ok, st, labels, err
}
