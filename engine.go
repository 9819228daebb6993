package turbosyn

import (
	"context"
	"fmt"

	"turbosyn/internal/core"
)

// Engine binds one circuit to one option set and keeps everything that is
// invariant across runs alive between calls: the K-bounded form of the
// circuit, its graph analysis (topological order, SCC condensation, levels,
// degrees), the NPN-keyed decomposition cache — including the persisted
// cross-run log, which is loaded once at construction instead of once per
// call — and a checkout pool of worker scratch arenas that survive probe and
// run boundaries. Repeated calls on one engine skip all of that setup; the
// one-shot functions (Synthesize, Feasible) construct a throwaway engine per
// call, so results from an engine are bit-identical to the one-shot path.
//
// An Engine is safe for concurrent use. Close flushes the persistent
// decomposition log (when Options.CacheDir is set); runs after Close still
// compute correctly but their new cache entries are not persisted.
//
// FlowSYN-s is a per-call island decomposition with no reusable state, so
// NewEngine rejects Options.Algorithm == FlowSYNS; use Synthesize for it.
type Engine struct {
	opts Options
	orig *Circuit
	work *Circuit // orig after K-bounding (orig itself when already bounded)
	core *core.Engine
}

// NewEngine validates c against o, K-bounds it if needed, analyzes it once
// and returns an engine ready to serve runs. When o.CacheDir is set the
// persisted decomposition log is loaded here, once.
func NewEngine(c *Circuit, o Options) (*Engine, error) {
	o = o.fill()
	if err := o.validate(); err != nil {
		return nil, err
	}
	if o.Algorithm == FlowSYNS {
		return nil, fmt.Errorf("turbosyn: Engine does not support FlowSYN-s (no reusable state); use Synthesize")
	}
	if err := c.Check(); err != nil {
		return nil, err
	}
	work, err := kBoundFor(c, o.K)
	if err != nil {
		return nil, err
	}
	ce, err := core.NewEngine(work, o.coreOptions(nil, nil))
	if err != nil {
		return nil, err
	}
	return &Engine{opts: o, orig: c, work: work, core: ce}, nil
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

// Feasible is FeasibleContext with a background context.
func (e *Engine) Feasible(phi int) (bool, core.Stats, error) {
	return e.FeasibleContext(context.Background(), phi)
}

// FeasibleContext decides the paper's Problem 2 on the engine's circuit: can
// it be mapped with clock period (MinPeriod) or MDR ratio (MinRatio) at most
// phi? Equivalent to the package-level Feasible with the engine's options,
// minus the per-call circuit analysis and cache loading.
func (e *Engine) FeasibleContext(ctx context.Context, phi int) (bool, core.Stats, error) {
	return e.core.FeasibleContext(ctx, phi, e.opts.coreOptions(nil, e.opts.Logger))
}

// MapAtRatio is MapAtRatioContext with a background context.
func (e *Engine) MapAtRatio(phi int) (*core.Result, error) {
	return e.MapAtRatioContext(context.Background(), phi)
}

// MapAtRatioContext computes labels and a mapped LUT network for a specific
// feasible phi; it fails when phi is infeasible. The result is relative to
// the K-bounded circuit (Engine's internal working form); use
// SynthesizeContext for origins remapped to the constructor's circuit plus
// packing and realization.
func (e *Engine) MapAtRatioContext(ctx context.Context, phi int) (*core.Result, error) {
	return e.core.MapAtRatioContext(ctx, phi, e.opts.coreOptions(nil, e.opts.Logger))
}

// Minimize is MinimizeContext with a background context.
func (e *Engine) Minimize() (*core.Result, error) {
	return e.MinimizeContext(context.Background())
}

// MinimizeContext finds the minimum feasible phi by binary search and
// returns the mapping at that phi, without the packing/realization
// post-passes of SynthesizeContext. Every probe of the search checks its
// state and scratch arenas out of the engine instead of re-deriving the
// circuit analysis.
func (e *Engine) MinimizeContext(ctx context.Context) (*core.Result, error) {
	return e.core.MinimizeContext(ctx, e.opts.coreOptions(nil, e.opts.Logger))
}

// Synthesize is SynthesizeContext with a background context.
func (e *Engine) Synthesize() (*Result, error) {
	return e.SynthesizeContext(context.Background())
}

// SynthesizeContext runs the full flow of the package-level
// SynthesizeContext — search, LUT packing, realization by retiming and
// pipelining, full observability — on the engine, reusing its analysis,
// decomposition cache and arena pool. Results are bit-identical to the
// package-level call with the same options.
func (e *Engine) SynthesizeContext(ctx context.Context) (*Result, error) {
	return synthesizeOn(ctx, e.core, e.orig, e.work, e.opts)
}
