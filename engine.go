package turbosyn

import (
	"context"
	"fmt"

	"turbosyn/internal/core"
	"turbosyn/internal/mapper"
	"turbosyn/internal/obs"
	"turbosyn/internal/retime"
)

// Engine binds one circuit to one option set and keeps everything that is
// invariant across runs alive between calls: the K-bounded form of the
// circuit (and, for FlowSYN-s, its register cut), its graph analysis
// (topological order, SCC condensation, degrees), the NPN-keyed
// decomposition cache — including the persisted cross-run log, which is
// loaded once at construction instead of once per call — and a checkout
// pool of worker scratch arenas that survive probe and run boundaries.
// Repeated runs on one engine skip all of that setup; the package-level
// Synthesize is NewEngine, one SynthesizeContext and Close.
//
// SynthesizeContext is the engine's one entry point: it answers the paper's
// Problem 1, the minimum phi together with a mapping that meets it. The
// decision at a given phi (Problem 2) is the inner step of its binary
// search and is not exported here; core.Engine.FeasibleContext serves the
// ablations that measure it.
//
// An Engine is safe for concurrent use. Close flushes the persistent
// decomposition log (when Options.CacheDir is set); runs after Close still
// compute correctly but their new cache entries are not persisted.
type Engine struct {
	opts  Options
	orig  *Circuit
	work  *Circuit      // orig after K-bounding (orig itself when already bounded)
	split *mapper.Split // FlowSYN-s's register cut of work; nil for the other algorithms
	core  *core.Engine  // over work, or over split.Islands for FlowSYN-s
}

// NewEngine validates c against o, K-bounds it if needed, analyzes it once
// and returns an engine ready to serve runs. FlowSYN-s engines analyze the
// register-free island circuit instead. When o.CacheDir is set the persisted
// decomposition log is loaded here, once.
func NewEngine(c *Circuit, o Options) (*Engine, error) {
	o = o.fill()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	work, err := kBoundFor(c, o.K)
	if err != nil {
		return nil, err
	}
	e := &Engine{opts: o, orig: c, work: work}
	mapped := work
	if o.Algorithm == FlowSYNS {
		e.split = mapper.Cut(work)
		mapped = e.split.Islands
	}
	if e.core, err = core.NewEngine(mapped, o.coreOptions(nil, o.Logger)); err != nil {
		return nil, err
	}
	return e, nil
}

// Close flushes the persistent decomposition log and marks the engine
// closed. Safe to call more than once; only the first call flushes.
func (e *Engine) Close() error { return e.core.Close() }

// PoolStats is the engine arena-pool counter set (see core.PoolStats).
type PoolStats = core.PoolStats

// PoolStats reports the engine's arena-pool counters: parked arenas and
// their retained bytes, plus the lifetime checkout traffic (reuses, creates,
// poisoned-or-oversized discards). See core.PoolStats and DESIGN.md §10.
func (e *Engine) PoolStats() core.PoolStats { return e.core.PoolStats() }

// SynthesizeContext runs the full flow — the binary search for the minimum
// phi and the mapping at it (for FlowSYN-s, the island mapping merged back
// over the registers), LUT packing, the period the packed mapping achieves
// (at most the search's phi) and its realization by retiming and
// pipelining, full observability — on the engine, reusing its analysis,
// decomposition cache and arena pool. Results are bit-identical on every
// run and at every Workers setting.
func (e *Engine) SynthesizeContext(ctx context.Context) (out *Result, err error) {
	o, c := e.opts, e.orig
	// Observability setup: one run id shared by logs, trace and progress; a
	// reporter goroutine that is always joined — with a final Done snapshot
	// delivered exactly once — before this function returns, on every path.
	runID := o.RunID
	if runID == "" && (o.Trace != nil || o.Progress != nil || o.Logger != nil) {
		runID = obs.NewRunID()
	}
	logger := o.Logger
	if logger != nil {
		logger = logger.With("run", runID, "circuit", c.Name)
	}
	var pg *obs.Progress
	if o.Progress != nil {
		pg = obs.NewProgress(runID, o.ProgressInterval, o.Progress)
		pg.Start()
	}
	defer func() {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		pg.Finish(msg) // nil-safe; no-op when o.Progress is nil
	}()
	if logger != nil {
		logger.Info("synthesis start", "algorithm", o.Algorithm.String(),
			"k", o.K, "workers", o.Workers, "nodes", c.NumNodes(), "gates", c.NumGates())
	}
	res, err := e.core.MinimizeContext(ctx, o.coreOptions(pg, logger))
	if err == nil && e.split != nil {
		res, err = e.split.Merge(res)
	}
	if err != nil {
		if logger != nil {
			logger.Warn("synthesis aborted", "err", err)
		}
		return nil, err
	}
	pg.SetBestPhi(res.Phi)
	// The mapping is relative to the K-bounded circuit; stream alignment
	// must refer to the caller's circuit. KBound preserves node names for
	// original gates, so remap through names when we rebounded.
	origOf := res.OrigOf
	if e.work != c {
		origOf = remapOrigins(res.OrigOf, e.work, c)
	}
	out = &Result{
		Phi:       res.Phi,
		LUTs:      res.LUTs,
		Mapped:    res.Mapped,
		OrigOf:    origOf,
		Stats:     res.Stats,
		Algorithm: o.Algorithm,
		RunID:     runID,
	}
	// The packing and realization post-passes are fast relative to the
	// search but not free on large networks; honour cancellation between
	// phases so a deadline that expires after the search still aborts
	// promptly with the work done so far attributed to the right phase.
	pg.SetPhase("pack")
	if err := phaseCancelled(ctx, "pack", out); err != nil {
		return nil, err
	}
	if !o.NoPack {
		packed, packedOrig, err := mapper.Pack(res.Mapped, o.K, origOf)
		if err != nil {
			return nil, err
		}
		out.Mapped, out.OrigOf, out.LUTs = packed, packedOrig, packed.NumGates()
	}
	pg.SetPhase("realize")
	if err := phaseCancelled(ctx, "realize", out); err != nil {
		return nil, err
	}
	// Phi is the delivered mapping's own period: the search's phi bounds it
	// from above, and packing and the cover choices may beat that bound.
	phi, r, ok := retime.MinPeriod(out.Mapped, res.Phi, o.Objective == MinRatio)
	if !ok {
		return nil, fmt.Errorf("turbosyn: internal error: phi=%d not realizable", res.Phi)
	}
	out.Phi = phi
	if !o.NoRealize {
		realized, rerr := retime.Apply(out.Mapped, r)
		if rerr != nil {
			return nil, rerr
		}
		out.Realized = realized
		out.Latency = retime.Latency(out.Mapped, r)
	} else {
		out.Latency = make([]int, len(out.Mapped.POs))
	}
	if o.Trace != nil {
		out.Stats.TraceEvents, out.Stats.TraceDropped = o.Trace.Totals()
	}
	if logger != nil {
		logger.Info("synthesis done", "phi", out.Phi, "searchPhi", res.Phi, "luts", out.LUTs,
			"iterations", out.Stats.Iterations, "degradations", out.Stats.Degradations)
	}
	return out, nil
}
