package core

import (
	"context"
	"sync"

	"turbosyn/internal/graph"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
	"turbosyn/internal/retime"
)

// analysis is everything the label engine derives from the circuit alone —
// no dependence on phi, Options or scheduling. Computed once per Engine and
// shared read-only by every probe: the comb topo order, the SCC
// decomposition, per-component member order, the condensation in-degrees,
// and the per-component work summary the dataflow scheduler needs
// (updatable member counts, triviality flags, the number of schedulable
// components).
type analysis struct {
	order []int
	sccs  *graph.SCCs
	indeg []int

	// Per-component member and update lists in CSR form: component comp's
	// members, in comb topo order, are memberFlat[memberOff[comp]:
	// memberOff[comp+1]], and its updatable members (gates with fanins — the
	// sweep universe of iterateComp and the seed universe of the dirty-set
	// worklist) are the same range of updFlat/updOff. Two flat arrays replace
	// the per-component slice headers of the earlier [][]int layout: at the
	// 100k-gate scale the header array alone cost more than the ids, and the
	// per-component update lists were rebuilt in arena scratch on every
	// component run.
	memberFlat []int32
	memberOff  []int32
	updFlat    []int32
	updOff     []int32

	// sameFlat/sameOff: per-node same-component successor lists (CSR) — the
	// nodes the worklist re-marks dirty when id's label raises. Only
	// intra-SCC edges appear: a raise never needs to mark across components,
	// because downstream components seed fully dirty when they start; see
	// iterateComp. Duplicate edges (parallel fanins) repeat here — marking a
	// dirty bit twice is free.
	sameFlat []int32
	sameOff  []int32

	// Dataflow-scheduler work summary (see runParallel).
	updates   []int  // updatable members per component
	trivial   []bool // singleton, acyclic components (inline-chainable)
	workCount int    // components with at least one updatable member

	// fns[id] is gate id's local function compiled for cone simulation
	// (coneFunction); nil for PIs and POs.
	fns []*logic.Compiled
}

// members returns component comp's members in comb topo order.
func (an *analysis) members(comp int) []int32 {
	return an.memberFlat[an.memberOff[comp]:an.memberOff[comp+1]]
}

// updatable returns component comp's updatable members (gates with fanins)
// in comb topo order.
func (an *analysis) updatable(comp int) []int32 {
	return an.updFlat[an.updOff[comp]:an.updOff[comp+1]]
}

// sameCompSucc returns node id's successors inside its own component.
func (an *analysis) sameCompSucc(id int) []int32 {
	return an.sameFlat[an.sameOff[id]:an.sameOff[id+1]]
}

// analyze computes the circuit-invariant analysis.
func analyze(c *netlist.Circuit) *analysis {
	an := &analysis{
		order: c.CombTopoOrder(),
		sccs:  graph.StronglyConnected(c.Adj()),
	}
	an.indeg = an.sccs.InDegrees()
	nc := an.sccs.NumComps()
	an.updates = make([]int, nc)
	an.trivial = make([]bool, nc)
	// CSR member/update lists: count per component, prefix-sum the offsets,
	// then fill by walking the comb topo order with per-component cursors.
	an.memberOff = make([]int32, nc+1)
	an.updOff = make([]int32, nc+1)
	for _, id := range an.order {
		comp := an.sccs.Comp[id]
		an.memberOff[comp+1]++
		n := c.Nodes[id]
		if n.Kind != netlist.PI && len(n.Fanins) > 0 {
			an.updOff[comp+1]++
			an.updates[comp]++
		}
	}
	for comp := 0; comp < nc; comp++ {
		an.memberOff[comp+1] += an.memberOff[comp]
		an.updOff[comp+1] += an.updOff[comp]
	}
	an.memberFlat = make([]int32, an.memberOff[nc])
	an.updFlat = make([]int32, an.updOff[nc])
	mcur := make([]int32, nc)
	copy(mcur, an.memberOff[:nc])
	ucur := make([]int32, nc)
	copy(ucur, an.updOff[:nc])
	for _, id := range an.order { // comb topo order within each component
		comp := an.sccs.Comp[id]
		an.memberFlat[mcur[comp]] = int32(id)
		mcur[comp]++
		n := c.Nodes[id]
		if n.Kind != netlist.PI && len(n.Fanins) > 0 {
			an.updFlat[ucur[comp]] = int32(id)
			ucur[comp]++
		}
	}
	// Intra-component successor CSR (dirty-marking targets; see the field
	// comment). Edges are scanned fanin-side, so no fanout lists are built.
	n := c.NumNodes()
	an.sameOff = make([]int32, n+1)
	for _, node := range c.Nodes {
		for _, f := range node.Fanins {
			if an.sccs.Comp[f.From] == an.sccs.Comp[node.ID] {
				an.sameOff[f.From+1]++
			}
		}
	}
	for id := 0; id < n; id++ {
		an.sameOff[id+1] += an.sameOff[id]
	}
	an.sameFlat = make([]int32, an.sameOff[n])
	scur := make([]int32, n)
	copy(scur, an.sameOff[:n])
	for _, node := range c.Nodes {
		for _, f := range node.Fanins {
			if an.sccs.Comp[f.From] == an.sccs.Comp[node.ID] {
				an.sameFlat[scur[f.From]] = int32(node.ID)
				scur[f.From]++
			}
		}
	}
	an.fns = make([]*logic.Compiled, n)
	for _, node := range c.Nodes {
		if node.Kind == netlist.Gate {
			an.fns[node.ID] = logic.Compile(node.Func)
		}
	}
	for comp := 0; comp < nc; comp++ {
		if an.updates[comp] > 0 {
			an.workCount++
		}
		if members := an.members(comp); len(members) == 1 {
			id := int(members[0])
			self := false
			for _, f := range c.Nodes[id].Fanins {
				if f.From == id {
					self = true
					break
				}
			}
			an.trivial[comp] = !self
		}
	}
	return an
}

// arenaPool is the Engine's checkout pool of worker scratch arenas. Arenas
// survive probe and run boundaries here: a probe checks its workers' arenas
// out (arenaFor), runs on them exclusively, and checks them back in when the
// probe's state returns to the engine. Pooled arenas keep their warm backing
// arrays (expansion builder, flow network, NPN memo), so repeated runs skip
// the arena re-warmup entirely; only the transient per-probe fields (trace
// ring, expansion validity, current node) are reset on checkout.
//
// An arena is discarded instead of pooled when it is poisoned — its run
// aborted via a contained panic, a strict budget or context cancellation, so
// its scratch may be mid-mutation — or when its retained footprint exceeds
// the run's ArenaByteBudget. Discarding is safe by the same argument that
// makes arena.reset safe: arenas are pure scratch, invisible in results.
type arenaPool struct {
	mu       sync.Mutex
	free     []*arena
	reuses   int
	creates  int
	discards int
}

// checkout pops a pooled arena (reset to its transient defaults) or creates
// a fresh one; pooled reports which.
func (p *arenaPool) checkout() (ar *arena, pooled bool) {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		ar = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		p.reuses++
		pooled = true
	} else {
		p.creates++
	}
	p.mu.Unlock()
	if ar == nil {
		ar = &arena{}
	}
	ar.ring = nil
	ar.built = false
	ar.curNode = -1
	ar.poisoned = false
	return ar, pooled
}

// checkin returns ar to the pool, discarding it when poisoned or when its
// retained footprint exceeds budget (0 = unlimited).
func (p *arenaPool) checkin(ar *arena, budget int) {
	ar.ring = nil
	discard := ar.poisoned || (budget > 0 && ar.bytes() > budget)
	p.mu.Lock()
	if discard {
		p.discards++
	} else {
		p.free = append(p.free, ar)
	}
	p.mu.Unlock()
}

// snapshot returns the pool's current counters and retained footprint.
func (p *arenaPool) snapshot() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	ps := PoolStats{
		Free:     len(p.free),
		Reuses:   p.reuses,
		Creates:  p.creates,
		Discards: p.discards,
	}
	for _, ar := range p.free {
		ps.FreeBytes += ar.bytes()
	}
	return ps
}

// PoolStats reports the state of an Engine's arena pool: how many arenas are
// parked (and their retained bytes), and the lifetime checkout traffic.
// Reuses + Creates equals the total checkouts; Discards counts arenas
// dropped at checkin because their run was poisoned (contained panic, strict
// budget, cancellation) or they outgrew the arena byte budget.
type PoolStats struct {
	Free      int
	FreeBytes int
	Reuses    int
	Creates   int
	Discards  int
}

// Engine owns everything invariant across probes and runs on one circuit:
// the graph analysis (topo order, SCCs, condensation degrees,
// per-component work summary), the NPN-keyed decomposition cache — including
// the persisted cross-run log, loaded once at construction instead of per
// run — and the checkout pools of worker arenas and probe states. Every
// probe of every run on the engine checks a state out instead of rebuilding
// this from scratch, which is what makes repeated runs (the daemon workload)
// and the O(log ub) probes of one MinimizeContext cheap.
//
// An Engine is the package's only way in. Its entry points take a context:
// MinimizeContext answers Problem 1 (the minimum phi and a mapping at it),
// FeasibleContext the decision at one phi that the search's probes make. An
// Engine is safe for concurrent use, and results are bit-identical whether
// it serves one call or many. Close flushes the persistent cache log; runs
// started after Close still compute correctly but their new cache entries
// are lost.
//
// Per-call Options may vary freely between runs on one engine — the
// turbomap-ub pass inside MinimizeContext already relies on that — with one
// exception: cache persistence (CacheDir) is fixed at construction, and the
// CacheDir of per-call options is ignored.
type Engine struct {
	c     *netlist.Circuit
	opts  Options // construction options: cache persistence, pool budget
	an    *analysis
	cache *decompCache
	pool  *arenaPool
	// fullSweep is copied into every checked-out state (see
	// state.fullSweep); only package tests set it.
	fullSweep bool

	mu     sync.Mutex
	states []*state
	closed bool
}

// NewEngine validates c against opts, analyzes it once and returns an engine
// ready to serve probes and runs. When opts.CacheDir is set the persisted
// decomposition log is loaded here, once, rather than on every run.
func NewEngine(c *netlist.Circuit, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	if err := validateInput(c, opts); err != nil {
		return nil, err
	}
	e := &Engine{
		c:     c,
		opts:  opts,
		an:    analyze(c),
		cache: newDecompCache(),
		pool:  &arenaPool{},
	}
	e.cache.openLog(opts)
	return e, nil
}

// Close flushes the persistent decomposition log (when the engine was
// constructed with a CacheDir) and marks the engine closed. Safe to call
// more than once; only the first call flushes.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	e.cache.closeLog(e.opts)
	return nil
}

// PoolStats reports the engine's arena-pool counters (see PoolStats). The
// chaos suite uses Discards to assert poisoning; the reuse tests use Free
// and FreeBytes to pin the pool's footprint bound.
func (e *Engine) PoolStats() PoolStats { return e.pool.snapshot() }

// checkoutState returns a probe state wired to the engine and to call c:
// analysis shared, arena pool attached, per-probe fields reset for
// (phi, opts), the call's counters and guard attached, and the launch
// counted. The caller must return the state with checkinState on every
// path.
func (e *Engine) checkoutState(phi int, opts Options, c *call) *state {
	e.mu.Lock()
	var s *state
	if n := len(e.states); n > 0 {
		s = e.states[n-1]
		e.states[n-1] = nil
		e.states = e.states[:n-1]
	}
	e.mu.Unlock()
	if s == nil {
		s = blankState(e.c, e.an, e.pool)
	}
	s.resetFor(phi, opts)
	s.fullSweep = e.fullSweep
	s.cache = e.cache
	s.conc = c.conc
	s.guard = c.guard
	c.conc.probesLaunched.Add(1)
	return s
}

// checkinState releases a probe state back to the engine: its arenas
// return to the pool (see releaseArenas) and the state shell is pooled. The
// shell is always reusable: resetFor reinitializes every per-probe field
// from scratch on the next checkout.
func (e *Engine) checkinState(s *state) {
	e.releaseArenas(s)
	s.cache = nil
	s.conc = nil
	s.guard = nil
	s.rec = nil
	e.mu.Lock()
	e.states = append(e.states, s)
	e.mu.Unlock()
}

// releaseArenas returns the state's arenas to the pool — poisoned first
// when the probe aborted through a fatal error (contained panic, strict
// budget) or context cancellation, so scratch that may have been
// interrupted mid-mutation is never reused. A state held after its run
// (the search's best probe) keeps its labels and covers, which mapping
// generation reads without any arena.
func (e *Engine) releaseArenas(s *state) {
	poisoned := s.fails.tripped() || s.guard.cancelled()
	for _, ar := range s.arenas {
		if poisoned {
			ar.poisoned = true
		}
		e.pool.checkin(ar, s.opts.ArenaByteBudget)
	}
	s.arenas = s.arenas[:0]
}

// withState checks a probe state out for (phi, opts) under call c and runs
// fn on it inside contain's panic boundary (op). The state goes back to the
// engine afterwards, unless fn succeeded and asked to keep it: then only its
// arenas return to the pool and the state is returned, owned by the caller
// until checkinState.
func (e *Engine) withState(phi int, opts Options, c *call, op string, fn func(*state) (keep bool, err error)) (*state, error) {
	s := e.checkoutState(phi, opts, c)
	keep := false
	err := contain(s, op, func() (err error) {
		keep, err = fn(s)
		return err
	})
	if keep && err == nil {
		e.releaseArenas(s)
		return s, nil
	}
	e.checkinState(s)
	return nil, err
}

// contain is the one panic boundary around a state's use outside the label
// engine's own per-component boundary: its run and the mapping generation
// that follows. A panic becomes an *InternalError of op instead of killing
// the process, and is recorded on the state so that releasing its arenas
// poisons them — nothing about the state's scratch can be trusted after it.
func contain(s *state, op string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			ie := newInternalError(r, op, -1, -1)
			s.fails.fail(ie)
			err = ie
		}
	}()
	return fn()
}

// call is the bookkeeping of one public entry point (FeasibleContext or
// MinimizeContext): its defaulted options, the context guard, and the live
// counter set that every probe of the call shares and the progress tracker
// samples. begin opens a call; end closes it on every exit path, folding
// the counters and trace totals into the call's Stats exactly once.
type call struct {
	opts  Options
	guard *runGuard
	conc  *counters
}

// begin defaults and validates opts and opens a call guarded by ctx.
func (e *Engine) begin(ctx context.Context, opts Options) (*call, error) {
	opts = opts.withDefaults()
	if err := validateInput(e.c, opts); err != nil {
		return nil, err
	}
	c := &call{opts: opts, guard: startGuard(ctx), conc: &counters{}}
	opts.Progress.SetSampler(c.conc.sampler(opts.Trace))
	return c, nil
}

// end releases the guard and folds the counters and trace totals into st.
// A non-nil err is returned as an abort of phase (see wrapAbort), carrying
// best, the smallest feasible phi proven (-1 when none), and st.
func (c *call) end(st *Stats, err error, phase string, best int) error {
	c.guard.release()
	c.conc.fold(st)
	if c.opts.Trace != nil {
		st.TraceEvents, st.TraceDropped = c.opts.Trace.Totals()
	}
	if err != nil {
		return wrapAbort(err, phase, best, *st)
	}
	return nil
}

// FeasibleContext decides Problem 2 on the engine's circuit: does a mapping
// with clock period (or, when opts.Pipelined, MDR ratio) at most phi exist?
// It returns the probe's work statistics alongside. Cancellation or
// deadline expiry aborts the probe between sweeps (and within long sweeps)
// and returns a *CancelError wrapping the context's error, with the partial
// work statistics attached.
func (e *Engine) FeasibleContext(ctx context.Context, phi int, opts Options) (bool, Stats, error) {
	c, err := e.begin(ctx, opts)
	if err != nil {
		return false, Stats{}, err
	}
	if phi < 1 {
		c.guard.release()
		return false, Stats{}, nil
	}
	var ring *obs.Ring
	if c.opts.Trace != nil {
		ring = c.opts.Trace.NewRing("probe")
	}
	st, s, err := e.probe(ring, phi, c.opts, c)
	if s != nil {
		e.checkinState(s)
	}
	if err := c.end(&st, err, "probe", -1); err != nil {
		return false, st, err
	}
	return s != nil, st, nil
}

// mapStep is a call's mapping step at phi, under progress phase "map" and
// inside one OpMap span: it generates the mapping from s, a state kept after
// a feasible run, inside contain's panic boundary (op "map") and checks the
// state in. The caller sets Result.Stats.
func (e *Engine) mapStep(opts Options, phi int, s *state) (res *Result, err error) {
	opts.Progress.SetPhase("map")
	if opts.Trace != nil {
		ring := opts.Trace.NewRing("map")
		t0 := ring.Now()
		defer func() { ring.Span(obs.OpMap, t0, int64(phi), probeVerdict(err == nil, err)) }()
	}
	defer e.checkinState(s)
	err = contain(s, "map", func() (err error) {
		res, err = s.generate()
		return err
	})
	return res, err
}

// MinimizeContext finds the minimum feasible phi by binary search on the
// engine's circuit and returns the mapping at that phi. The upper bound
// follows the paper: the trivial one-gate-per-LUT mapping achieves the
// current clock period, and for the MDR objective TurboMap's minimum clock
// period is itself an upper bound (computed first when opts.Decompose is
// set, mirroring "first run TurboMap to get an upper bound UB"). Every
// probe of the search checks its state and arenas out of the engine instead
// of rebuilding the circuit analysis, and the mapping is generated from the
// state of the search's best probe, so no probe runs after the search.
//
// Cancellation or deadline expiry aborts the search at the next checkpoint
// — probes poll an atomic flag at sweep granularity, so the abort lands
// well under a second even on large circuits — and returns a *CancelError
// carrying the phase that observed it, the best feasible phi proven so far
// (-1 when none) and the partial work statistics.
func (e *Engine) MinimizeContext(ctx context.Context, opts Options) (*Result, error) {
	c, err := e.begin(ctx, opts)
	if err != nil {
		return nil, err
	}
	opts = c.opts
	// One call spans the whole search — every probe and the final mapping
	// step. (The decomposition cache is the engine's and spans calls.)
	var total Stats
	fail := func(err error, phase string, best int) (*Result, error) {
		if opts.Logger != nil {
			opts.Logger.Warn("search aborted", "phase", phase, "bestPhi", best, "err", err)
		}
		return nil, c.end(&total, err, phase, best)
	}
	ub := max(retime.Period(e.c), 1)
	if opts.Decompose && opts.Pipelined {
		// Paper's UB: TurboMap's optimum seeds TurboSYN's search.
		opts.Progress.SetPhase("turbomap-ub")
		tmOpts := opts
		tmOpts.Decompose = false
		tm, s, err := e.minimizeSearch(ub, tmOpts, c, &total)
		if err != nil {
			return fail(err, "turbomap-ub", tm)
		}
		e.checkinState(s)
		if opts.Logger != nil {
			opts.Logger.Debug("turbomap upper bound", "ub", tm, "retimedUB", ub)
		}
		ub = tm
	}
	opts.Progress.SetPhase("search")
	best, s, err := e.minimizeSearch(ub, opts, c, &total)
	if err != nil {
		return fail(err, "search", best)
	}
	res, err := e.mapStep(opts, best, s)
	if err != nil {
		return fail(err, "map", best)
	}
	c.end(&total, nil, "", best)
	res.Stats = total
	return res, nil
}
