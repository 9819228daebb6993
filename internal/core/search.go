package core

import (
	"context"
	"fmt"
	"sync/atomic"

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

// probe is one asynchronous feasibility decision at a fixed phi.
type probe struct {
	phi    int
	cancel atomic.Bool
	done   chan struct{}
	ok     bool
	err    error // aborting error (ctx, strict budget, contained panic)
	stats  Stats
	labels []int // converged labels when ok (warm-start seed for later probes)
	// Tracing bookkeeping, written only by the search goroutine: the launch
	// time on the search ring, and whether the probe's span was recorded yet
	// (midpoints record at acceptance, everything else at the wind-down join).
	t0      int64
	spanned bool
}

// minimizeSearch binary-searches the smallest feasible phi in [1, ub] for
// call c; ub must be feasible. Each step decides Problem 2 at the midpoint.
// The search is width probes wide: alongside the midpoint it launches the
// midpoints of both possible next intervals while width allows, so
// whichever way the current probe resolves, the next decision is already in
// flight. The probe for the branch not taken is cancelled (state.run
// notices via its cancel flag and aborts between sweeps). Verdicts are
// deterministic per phi, so the search visits exactly the phis a
// one-probe-wide search would and returns the same minimum. total
// accumulates the work of exactly the midpoint probes, so it does not
// depend on the width; lookaheads count only through the call's counters.
//
// The width is min(3, workers), with the worker pool split evenly between
// the concurrent probes (inner worker counts never change results, only
// scheduling). It is 1 when ub <= 2, where the search is at most two probes
// long, and under a positive IterBudget, whose probes also start cold so the
// n^2 ablation counts iterations from the initial labels.
//
// Every probe goroutine checks a state out of the engine and returns it at
// exit: concurrent probes simply hold distinct pooled states, and a
// cancelled lookahead's state (arenas included) is reusable the moment it is
// checked back in — only fatal aborts poison arenas.
//
// Fault containment: every probe goroutine carries a top-level recover (a
// panic that escapes the label engine's own boundary becomes an
// InternalError instead of killing the process), and the wind-down joins
// every probe ever launched — cancelled lookaheads included — before
// returning, so no goroutine outlives the search and no probe's error is
// dropped on the floor. On an aborting error the returned phi is the best
// feasible one proven before the abort (-1 when none), so the caller can
// report partial progress.
func (e *Engine) minimizeSearch(ub int, opts Options, c *call, total *Stats) (best int, err error) {
	workers := opts.workerCount()
	width := min(3, workers)
	if opts.IterBudget > 0 || ub <= 2 {
		width = 1
	}
	popts := opts
	popts.Workers = workers / width

	var ring *obs.Ring
	if opts.Trace != nil {
		ring = opts.Trace.NewRing("search")
	}
	// record emits a joined probe's span and log line exactly once; verdicts
	// of lost-speculation cancels are marked aborted rather than infeasible.
	record := func(p *probe) {
		if p.spanned {
			return
		}
		p.spanned = true
		cancelled := p.cancel.Load()
		if ring != nil {
			v := probeVerdict(p.ok, p.err)
			if cancelled && p.err == nil {
				v = -2
			}
			ring.Span(obs.OpProbe, p.t0, int64(p.phi), v)
		}
		if opts.Logger != nil {
			opts.Logger.Debug("probe", "phi", p.phi, "feasible", p.ok, "cancelled", cancelled,
				"iterations", p.stats.Iterations, "cutChecks", p.stats.CutChecks, "err", p.err)
		}
	}

	// Warm-start store: every launch targets a phi at or below hi, which is
	// strictly below the best feasible probe accepted so far, so the latest
	// accepted probe's labels always qualify as a seed (subject to the
	// warmUseful distance gate). The store is read and written only on this
	// goroutine (launches and accepts both happen in the search loop), and a
	// stored slice is never mutated again — the probe copied it out of its
	// state before checkin, and seeding copies it into the new probe's state.
	var warmLabels []int
	warmPhi := 0

	running := make(map[int]*probe)
	var all []*probe // every probe ever launched, for the wind-down join
	launch := func(phi int) {
		if _, ok := running[phi]; ok {
			return
		}
		p := &probe{phi: phi, done: make(chan struct{})}
		if ring != nil {
			p.t0 = ring.Now()
		}
		running[phi] = p
		all = append(all, p)
		seed, seedPhi := warmLabels, warmPhi
		if opts.IterBudget > 0 || !warmUseful(phi, warmPhi) {
			seed = nil
		}
		go func() {
			defer close(p.done)
			s := e.checkoutState(phi, popts, c, &p.cancel)
			defer e.checkinState(s)
			defer func() {
				if r := recover(); r != nil {
					p.err = newInternalError(r, "probe", -1, -1)
					// Record the failure on the state so checkin poisons its
					// arenas: the panic escaped the per-component boundary, so
					// nothing about the probe's scratch can be trusted.
					s.fails.fail(p.err)
				}
			}()
			if seed != nil {
				s.seedLabels(seed, seedPhi)
			}
			p.ok, p.err = s.run()
			p.stats = s.stats
			if p.ok {
				// Copy out before the deferred checkin recycles the state.
				p.labels = append([]int(nil), s.labels...)
			}
		}()
	}
	drop := func(p *probe, cancelled bool) {
		delete(running, p.phi)
		if cancelled {
			p.cancel.Store(true)
			c.conc.probesCancelled.Add(1)
		}
	}

	lo, hi := 1, ub
	best = -1
	for lo <= hi {
		mid := (lo + hi) / 2
		launch(mid)
		if left := mid - 1; lo <= left && len(running) < width {
			launch((lo + left) / 2)
		}
		if right := mid + 1; right <= hi && len(running) < width {
			launch((right + hi) / 2)
		}
		p := running[mid]
		<-p.done
		drop(p, false)
		record(p)
		total.Add(p.stats)
		if p.err != nil {
			err = p.err
			break
		}
		if p.ok {
			best = mid
			opts.Progress.SetBestPhi(mid)
			warmLabels, warmPhi = p.labels, mid
			hi = mid - 1
		} else {
			lo = mid + 1
		}
		// Cancel probes that fell outside the remaining interval; they can
		// never become a midpoint again.
		for phi, q := range running {
			if phi < lo || phi > hi {
				drop(q, true)
			}
		}
	}
	// Wind down: cancel whatever is still running, then join every probe
	// ever launched. Any aborting error a non-midpoint probe hit (a strict
	// budget, a contained panic — a lost-speculation cancel is not an error)
	// surfaces here rather than being silently discarded with the probe.
	for _, q := range running {
		drop(q, true)
	}
	for _, q := range all {
		<-q.done
		record(q)
		if err == nil && q.err != nil {
			err = q.err
		}
	}
	if err != nil {
		return best, err
	}
	if best < 0 {
		return -1, fmt.Errorf("core: no feasible target up to %d for %s (is the upper bound wrong?)",
			ub, e.c.Name)
	}
	return best, nil
}
