package core

import (
	"fmt"

	"turbosyn/internal/obs"
)

// The phi search behind Engine.MinimizeContext: a binary search whose every
// step is one cold probe on a state checked out of the engine.

// minimizeSearch binary-searches the smallest feasible phi in [1, ub] for
// call c; ub must be feasible. Each step decides Problem 2 at the midpoint
// with one cold probe, run inline on the calling goroutine with the call's
// whole worker pool for the dataflow component scheduler. total accumulates
// the work of every probe.
//
// The state of the best feasible probe — its converged labels and recorded
// covers — stays checked out, its arenas already back in the pool, and is
// returned with its phi: the caller maps from it or discards it, and must
// return it with checkinState. Every other probe's state goes back to the
// engine when the probe ends.
//
// On an aborting error no state is held and the returned phi is the best
// feasible one proven before the abort (-1 when none), so the caller can
// report partial progress.
func (e *Engine) minimizeSearch(ub int, opts Options, c *call, total *Stats) (int, *state, error) {
	var ring *obs.Ring
	if opts.Trace != nil {
		ring = opts.Trace.NewRing("search")
	}
	var held *state
	lo, hi, best := 1, ub, -1
	for lo <= hi {
		mid := (lo + hi) / 2
		st, s, err := e.probe(ring, mid, opts, c)
		total.Add(st)
		if err != nil {
			if held != nil {
				e.checkinState(held)
			}
			return best, nil, err
		}
		if s != nil {
			if held != nil {
				e.checkinState(held)
			}
			held, best = s, mid
			opts.Progress.SetBestPhi(mid)
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	if held == nil {
		return -1, nil, fmt.Errorf("core: no feasible target up to %d for %s (is the upper bound wrong?)",
			ub, e.c.Name)
	}
	return best, held, nil
}

// probe decides feasibility at phi for call c with one cold label
// computation. When phi is feasible it returns the probe's state, still
// checked out with its arenas back in the pool; the caller owns it and must
// return it with checkinState. An infeasible or aborted probe returns a nil
// state. The probe runs inside withState's panic boundary (op "probe"); its
// span goes to ring (when non-nil) and its log line to opts.Logger.
func (e *Engine) probe(ring *obs.Ring, phi int, opts Options, c *call) (st Stats, feasible *state, err error) {
	var t0 int64
	if ring != nil {
		t0 = ring.Now()
	}
	feasible, err = e.withState(phi, opts, c, "probe", func(s *state) (bool, error) {
		ok, err := s.run()
		st = s.stats
		return ok, err
	})
	ok := feasible != nil
	if ring != nil {
		ring.Span(obs.OpProbe, t0, int64(phi), probeVerdict(ok, err))
	}
	if opts.Logger != nil {
		opts.Logger.Debug("probe", "phi", phi, "feasible", ok,
			"iterations", st.Iterations, "cutChecks", st.CutChecks, "err", err)
	}
	return st, feasible, err
}
