package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync/atomic"

	"turbosyn/internal/cut"
	"turbosyn/internal/decomp"
	"turbosyn/internal/expand"
	"turbosyn/internal/faultinject"
	"turbosyn/internal/graph"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/obs"
)

// coverRec is the realization recorded for a gate on the final (consistent)
// pass: the chosen cut of E_v and the LUT tree implementing the cone over
// the cut signals. Structural covers have a single-node tree.
type coverRec struct {
	cut  []Replica
	tree *decomp.Tree
}

// state carries one feasibility probe. States are pooled by the Engine:
// blankState allocates the per-circuit arrays once, resetFor reinitializes
// every per-probe field, and the circuit-invariant analysis (an) is shared
// read-only across every probe of the engine.
type state struct {
	c  *netlist.Circuit
	an *analysis
	// pool is the engine's arena pool: arenaFor checks worker arenas out of
	// it, and checkinState returns them when the probe's state goes back to
	// the engine.
	pool   *arenaPool
	opts   Options
	phi    int
	labels []int
	order  []int // combinational topological order (good sweep order)
	sccs   *graph.SCCs

	// Decision cache: a gate is re-decided only when its L changed since
	// the last decision. Decisions also depend on deeper labels, so a
	// cache hit can be stale — which is why convergence is only declared
	// by a full fresh recording pass (see run).
	lastL   []int
	decided []bool
	// dirty is the worklist bit per node (see iterateComp): set when a
	// predecessor's label changed since the node's last decision, cleared as
	// the fast pass drains it. The parallel schedule never races on it:
	// within a run only the worker that owns a node's component writes its
	// bit (raises mark same-component successors only; a successor
	// component seeds fully dirty when it starts).
	dirty []bool
	// fullSweep turns the dirty-set worklist off: every fast pass visits
	// every updatable member, the behaviour the worklist must reproduce bit
	// for bit. Production never sets it; package tests select it (through
	// Engine.fullSweep or directly on a newState) to build the sequential,
	// full-sweep, cold reference every bit-identity test compares against.
	fullSweep bool
	// Decomposition backoff: nodes whose label keeps rising (a diverging
	// or slowly converging loop) skip repeated expensive resynthesis
	// attempts during fast passes; recording passes always attempt, so the
	// final labels and covers never depend on the backoff.
	bumps      []int
	nextDecomp []int
	// wits holds each node's cut witness (witness.go), written and read
	// only by decide, so only by the worker owning the node's component.
	// Per-probe like the decision cache: resetFor empties every witness
	// but keeps its backing array.
	wits []witness
	// cache memoizes DecomposeEffort outcomes by cone function, K, depth budget
	// and bound-set priority. Cone functions recur heavily across label
	// iterations; this cache removes the repeated Roth-Karp window scans.
	// It is safe to share across workers and probes (see cache.go).
	cache *decompCache
	// conc is the live counter set of the public call this probe belongs
	// to, shared with every other probe of the call.
	conc *counters
	// rec, when non-nil, is the run's span recorder (Options.Trace). Worker
	// arenas attach their rings from it; nil keeps every hook a single
	// pointer check.
	rec *obs.Recorder

	// workers bounds the dataflow worker pool; 1 selects the strictly
	// sequential sweep. Both paths compute bit-identical labels and covers.
	workers int
	// guard, when non-nil, is the context watcher shared by every probe of
	// one public API call: its flag aborts the run, and the abort surfaces
	// as the context's error.
	guard *runGuard
	// fails records the first run-aborting error of this probe: a contained
	// panic (InternalError) or a budget exhaustion under Strict
	// (BudgetError). Once tripped, stopped() drains the run like a
	// cancellation and run() returns the recorded error.
	fails failSet
	// failed flags an infeasible component so sibling workers stop pumping
	// labels that no longer matter. Reset at the top of every run.
	failed atomic.Bool
	// pendingBuf and compDoneBuf are the dataflow scheduler's per-component
	// counters (dependency countdowns and completion flags), allocated once
	// per state and re-initialized at the start of every run. At the
	// 100k-gate scale the condensation has ~O(gates) components, so
	// allocating these per probe dominated probe setup; keeping them on the
	// pooled state amortizes them like every other per-circuit array.
	pendingBuf  []atomic.Int32
	compDoneBuf []atomic.Bool
	// compDone, set by run (pointing at compDoneBuf), flags components
	// whose labels are final, on the sequential path and under the dataflow
	// scheduler alike. The PLD walk reads it to restrict itself to finished
	// components. Completion is a superset of the component's ancestors —
	// the only part of the graph the verdict depends on — so the
	// restriction changes nothing observable (see sccIsolated).
	compDone []atomic.Bool

	// arenas holds the per-worker scratch of the label hot path (see
	// arena.go): arena 0 serves the sequential sweep, arena w serves pool
	// worker w. Grown lazily by arenaFor; never shared between concurrently
	// running goroutines.
	arenas []*arena

	recs  []coverRec
	stats Stats
}

const labelInf = int(1) << 28

// blankState allocates a probe state's per-circuit arrays and wires in the
// shared analysis and the engine's arena pool. The state is not
// usable until resetFor ran and a cache and counter set were attached.
func blankState(c *netlist.Circuit, an *analysis, pool *arenaPool) *state {
	n := c.NumNodes()
	nc := an.sccs.NumComps()
	return &state{
		c:           c,
		an:          an,
		pool:        pool,
		labels:      make([]int, n),
		order:       an.order,
		sccs:        an.sccs,
		lastL:       make([]int, n),
		decided:     make([]bool, n),
		dirty:       make([]bool, n),
		bumps:       make([]int, n),
		nextDecomp:  make([]int, n),
		wits:        make([]witness, n),
		recs:        make([]coverRec, n),
		pendingBuf:  make([]atomic.Int32, nc),
		compDoneBuf: make([]atomic.Bool, nc),
	}
}

// resetFor reinitializes every per-probe field for a probe at phi under
// opts, exactly as a freshly allocated state would start. It deliberately
// resets everything a previous probe could have touched — labels, the
// decision cache, backoff counters, cover records, the fail set — so a
// pooled state is indistinguishable from a new one even after the previous
// probe aborted mid-flight. The cache, counters and guard are cleared; the
// caller attaches its own.
func (s *state) resetFor(phi int, opts Options) {
	s.opts = opts
	s.phi = phi
	s.rec = opts.Trace
	s.workers = opts.workerCount()
	s.cache = nil
	s.conc = nil
	s.guard = nil
	s.compDone = nil
	s.fails.reset()
	s.failed.Store(false)
	s.stats = Stats{}
	for i := range s.lastL {
		s.lastL[i] = -labelInf
		s.decided[i] = false
		s.dirty[i] = false
		s.bumps[i] = 0
		s.nextDecomp[i] = 0
		s.wits[i].reps, s.wits[i].cone = s.wits[i].reps[:0], 0
		s.recs[i] = coverRec{}
	}
	for _, n := range s.c.Nodes {
		switch {
		case n.Kind == netlist.PI:
			s.labels[n.ID] = 0
		case n.Kind == netlist.Gate && len(n.Fanins) == 0:
			s.labels[n.ID] = 0 // constant source, available like a PI
		default:
			s.labels[n.ID] = 1 // the paper's initial lower bound
		}
	}
}

// stopped reports whether the probe should abandon work: a sibling
// component proved phi infeasible, the caller's context is done, or a fatal
// error (contained panic, strict budget) was recorded. Every check is one
// atomic load, so the engine polls it at sweep granularity (and every
// checkpointMask+1 node updates within a sweep) without measurable cost.
func (s *state) stopped() bool {
	return s.failed.Load() || s.fails.tripped() || s.guard.cancelled()
}

// checkpointMask batches the intra-sweep cancellation checks: one stopped()
// poll every checkpointMask+1 node updates keeps the worst-case abort
// latency at a few hundred label decisions while making the common-case
// overhead a masked counter test.
const checkpointMask = 255

// abortErr resolves why an aborted run stopped: a recorded fatal error
// wins, then context cancellation; a plain infeasible probe has no error.
func (s *state) abortErr() error {
	if err := s.fails.get(); err != nil {
		return err
	}
	if s.guard.cancelled() {
		return s.guard.err()
	}
	return nil
}

// finishRun turns a run verdict into run()'s result, surfacing any abort
// error even when the verdict itself managed to complete.
func (s *state) finishRun(ok bool) (bool, error) {
	if err := s.abortErr(); err != nil {
		return false, err
	}
	return ok, nil
}

// degrade absorbs one resource-budget exhaustion: counted in
// st.Degradations by default (the node falls back to the structural
// feasibility check), fatal under Options.Strict. It reports whether the
// run continues gracefully. Graceful degradations emit a trace instant and
// bump the live counter so progress reports and traces show quality loss as
// it happens.
func (s *state) degrade(st *Stats, ar *arena, resource string, node, limit int) bool {
	if s.opts.Strict {
		s.fails.fail(&BudgetError{Resource: resource, Node: node, Limit: limit})
		return false
	}
	st.Degradations++
	s.conc.degradations.Add(1)
	if ar.ring != nil {
		ar.ring.Instant(obs.OpDegrade, int64(node), int64(limit))
	}
	return true
}

// computeL returns L(v) = max over fanin edges of l(u) - phi*w(e).
func (s *state) computeL(v int) int {
	L := -labelInf
	for _, f := range s.c.Nodes[v].Fanins {
		if x := s.labels[f.From] - s.phi*f.Weight; x > L {
			L = x
		}
	}
	return L
}

// run performs the label computation. It returns true when phi is feasible
// (labels converged, and for non-pipelined objectives every PO meets phi).
// On success the labels are converged and recs is consistent with them.
// A non-nil error means the run aborted — context cancellation, a budget
// exhausted under Strict, or a contained panic — and the verdict carries no
// information; stats still reflect the partial work done.
//
// With more than one worker and more than one component carrying work, the
// per-component work is scheduled dataflow-style over the condensation (see
// parallel.go); otherwise, and whenever an iteration budget demands globally
// ordered accounting, components run strictly sequentially in topological
// order. Both paths produce identical labels, covers and verdicts: a
// component's computation reads only its own members and upstream
// components, and upstream components are final before the component starts
// in either schedule.
func (s *state) run() (bool, error) {
	defer s.conc.probesFinished.Add(1)
	s.failed.Store(false)
	workers := s.workers
	if s.opts.IterBudget > 0 {
		workers = 1
	}
	raise(&s.conc.workers, workers)
	if workers > 1 {
		// With no component carrying work the outputs alone decide.
		if s.an.workCount == 0 {
			return s.finishRun(s.checkOutputs())
		}
		if workers = min(workers, s.an.workCount); workers > 1 {
			return s.runParallel(workers)
		}
	}
	ar := s.arenaFor(0)
	s.resetCompDone()
	for _, comp := range s.sccs.Order {
		if s.safeRunComp(comp, &s.stats, ar) != compConverged {
			return s.finishRun(false)
		}
		s.compDone[comp].Store(true)
	}
	return s.finishRun(s.checkOutputs())
}

// resetCompDone clears every component's completion flag and points
// compDone at them, at the start of a run on either path.
func (s *state) resetCompDone() {
	for comp := range s.compDoneBuf {
		s.compDoneBuf[comp].Store(false)
	}
	s.compDone = s.compDoneBuf
}

// checkOutputs enforces the clock-period side condition after convergence.
func (s *state) checkOutputs() bool {
	if !s.opts.Pipelined {
		for _, po := range s.c.POs {
			if s.labels[po] > s.phi {
				return false
			}
		}
	}
	return true
}

// compOutcome is the verdict of one component's label iteration.
type compOutcome int

const (
	// compConverged: labels of the component reached their fixpoint and
	// the recorded covers are consistent with them.
	compConverged compOutcome = iota
	// compInfeasible: the component certifies phi infeasible (positive
	// loop detected, or the conservative stopping rule ran out).
	compInfeasible
	// compCancelled: the probe was abandoned (a sibling component already
	// failed, the context was cancelled, or a fatal error was recorded); the
	// verdict carries no information.
	compCancelled
	// compErrored: the component's iteration panicked; the panic was
	// recovered at the containment boundary and recorded as an
	// InternalError in s.fails. The verdict carries no information.
	compErrored
)

// safeRunComp is the panic-containment boundary around one component's
// iteration: a panic anywhere inside the label engine — a bug, or an
// injected fault — is recovered here, recorded as an InternalError naming
// the component and the node being decided, and converted into an abort the
// rest of the run observes through stopped(). The scheduler's bookkeeping
// (finish, pending counters, queue close) therefore always runs, so a
// panicking component can never strand its successors or deadlock the pool.
func (s *state) safeRunComp(comp int, st *Stats, ar *arena) (out compOutcome) {
	defer func() {
		if r := recover(); r != nil {
			// The panic may have interrupted the arena's scratch mid-mutation;
			// poison it so the pool discards it instead of reusing it.
			ar.poisoned = true
			s.fails.fail(newInternalError(r, "labels", comp, ar.curNode))
			out = compErrored
		}
	}()
	return s.runComp(comp, st, ar)
}

// runComp iterates component comp to convergence. st receives the work
// counters; in the sequential schedule it is the state's own stats, in the
// parallel schedule the owning worker's accumulator, merged after the
// run. ar is the calling worker's scratch arena; writes
// touch only the component's members and the arena, so concurrent
// invocations on dependency-free components with distinct arenas are
// disjoint.
func (s *state) runComp(comp int, st *Stats, ar *arena) compOutcome {
	var t0 int64
	if ar.ring != nil {
		t0 = ar.ring.Now()
	}
	iterBefore := st.Iterations
	out := s.iterateComp(comp, st, ar)
	if ar.ring != nil {
		// Close the stage span left open by the sweep, then wrap the whole
		// component run in one span (args: component id, iteration count).
		ar.ring.ClosePhase()
		ar.ring.Span(obs.OpComp, t0, int64(comp), int64(st.Iterations-iterBefore))
		if out == compCancelled {
			ar.ring.Instant(obs.OpCancel, int64(comp), -1)
		}
	}
	b := ar.bytes()
	if b > st.ArenaPeakBytes {
		st.ArenaPeakBytes = b
	}
	raise(&s.conc.arenaPeakBytes, b)
	if lim := s.opts.ArenaByteBudget; lim > 0 && b > lim {
		// The arena outgrew its budget: release the retained scratch back to
		// the allocator. Arenas are pure scratch, so results are unaffected;
		// the worker merely re-grows warm arrays on its next component.
		if s.degrade(st, ar, "arena-bytes", -1, lim) {
			ar.reset()
		}
	}
	return out
}

// iterateComp is runComp's body; runComp wraps it to record the arena
// high-water mark once per component run.
func (s *state) iterateComp(comp int, st *Stats, ar *arena) compOutcome {
	// Sound runaway certificate: in any feasible mapping the needed LUTs
	// number at most the gate count, simple LUT-level paths bound arrivals
	// by that count, and loops contribute nothing positive — so a label
	// beyond NumNodes()+2 certifies a positive loop. This check and the
	// 6n-iteration PLD below together form the fast detection suite that
	// Options.PLD toggles; without it only the conservative per-SCC n^2
	// stopping rule of SeqMapII remains (the paper's 10-50x comparison).
	phase(ar, obs.OpLabel)
	maxLabel := s.c.NumNodes() + 2
	members := s.an.members(comp)
	updatable := s.an.updatable(comp)
	if len(updatable) == 0 {
		return compConverged
	}
	n := len(members)
	// Per-SCC runaway bound: labels inside the component are supported
	// by at most base (the best external support) plus one unit per
	// member along a simple path. Tighter than the global bound, so
	// diverging components stop pumping sooner.
	base := 0
	for _, id := range members {
		for _, f := range s.c.Nodes[id].Fanins {
			if s.sccs.Comp[f.From] != comp {
				if v := s.labels[f.From] - s.phi*f.Weight; v > base {
					base = v
				}
			}
		}
	}
	sccCap := base + n + 2
	if sccCap > maxLabel {
		sccCap = maxLabel
	}
	pldFrom := 6*n + 6 // Theorem 2: isolation is meaningful from 6n on
	capIter := n*n + 4
	if s.opts.PLD && capIter < pldFrom+4 {
		capIter = pldFrom + 4
	}
	// Seed the dirty-set worklist: every updatable member starts dirty.
	// Cross-component effects need no marking, because upstream labels are
	// final when a component starts (in both schedules). From here, fast
	// passes visit only dirty members (every skipped visit would have been a
	// decision-cache no-op: same L, already decided — or a PO max against an
	// unchanged L), which is why labels, covers and every pre-worklist Stats
	// counter are bit-identical to full-membership sweeps. See DESIGN.md §11.
	for _, id := range updatable {
		s.dirty[id] = true
	}
	worklist := !s.fullSweep
	ar.curNode = -1
	for iter := 0; iter < capIter; iter++ {
		faultinject.Sweep()
		if s.stopped() {
			return compCancelled
		}
		if s.opts.IterBudget > 0 && st.Iterations >= s.opts.IterBudget {
			return compInfeasible
		}
		st.Iterations++
		s.conc.iterations.Add(1)
		changed := false
		visited := 0
		for _, id32 := range updatable {
			id := int(id32)
			if worklist && !s.dirty[id] {
				continue
			}
			if visited&checkpointMask == checkpointMask && s.stopped() {
				return compCancelled
			}
			visited++
			s.dirty[id] = false
			if s.update(id, false, st, ar) {
				changed = true
				if worklist {
					s.markDirty(id)
				}
			}
		}
		// The live gauges pay a few atomic adds per sweep, not per node —
		// the hot path stays untouched.
		st.SweepNodeVisits += visited
		st.DirtySkips += len(updatable) - visited
		if visited > st.WorklistPeak {
			st.WorklistPeak = visited
		}
		s.conc.nodeVisits.Add(int64(visited))
		s.conc.dirtySkips.Add(int64(len(updatable) - visited))
		gauge(&s.conc.worklistDepth, &s.conc.worklistPeak, visited)
		if !changed {
			// Recording pass: re-decide everything at the converged
			// labels and keep the covers — the worklist never thins this
			// pass, so convergence is still declared only by a full fresh
			// sweep. A change here means a cached decision went stale
			// (decisions also read labels deeper than L); keep iterating.
			st.Iterations++
			s.conc.iterations.Add(1)
			for ui, id32 := range updatable {
				if ui&checkpointMask == checkpointMask && s.stopped() {
					return compCancelled
				}
				id := int(id32)
				s.dirty[id] = false
				if s.update(id, true, st, ar) {
					changed = true
					if worklist {
						s.markDirty(id)
					}
				}
			}
			st.SweepNodeVisits += len(updatable)
			s.conc.nodeVisits.Add(int64(len(updatable)))
			if !changed {
				return compConverged
			}
		}
		if s.opts.PLD {
			for _, id := range updatable {
				if s.labels[id] > sccCap {
					st.PLDHits++
					return compInfeasible // runaway labels certify a positive loop
				}
			}
			if iter+1 >= pldFrom {
				st.PLDChecks++
				phase(ar, obs.OpPLD)
				isolated := s.sccIsolated(comp, ar)
				phase(ar, obs.OpLabel)
				if isolated {
					st.PLDHits++
					return compInfeasible
				}
			}
		}
	}
	return compInfeasible // conservative stopping rule hit
}

// update re-decides node id's label. record requests cover recording (used
// on the final fresh pass). It reports whether the label changed.
func (s *state) update(id int, record bool, st *Stats, ar *arena) bool {
	ar.curNode = id // attributes a contained panic to the node being decided
	n := s.c.Nodes[id]
	L := s.computeL(id)
	if n.Kind == netlist.PO {
		nl := L
		if nl < 1 {
			nl = 1
		}
		if nl > s.labels[id] {
			s.labels[id] = nl
			return true
		}
		return false
	}
	if !record && s.decided[id] && s.lastL[id] == L {
		return false
	}
	s.decided[id] = true
	s.lastL[id] = L
	newLabel, rec := s.decide(id, L, record, st, ar)
	if record {
		s.recs[id] = rec
	}
	if newLabel > s.labels[id] {
		s.labels[id] = newLabel
		s.bumps[id]++
		return true
	}
	return false
}

// markDirty flags id's same-component successors for a revisit after id's
// label rose. Same-component only, so the bits stay owned by the worker
// running the component; a successor component seeds every member dirty
// when it starts (see iterateComp).
func (s *state) markDirty(id int) {
	for _, v := range s.an.sameCompSucc(id) {
		s.dirty[v] = true
	}
}

// decide computes the label for gate id given L, optionally producing the
// cover record. The structural check builds E_v at bound L through
// Options.LowDepth candidate levels; resynthesis rebuilds it once at the
// strict candidate frontier and tightens that in place to L-1, L-2, ...;
// the L+1 settle re-marks whichever region is left looser. Only the flow
// computation reruns per bound.
func (s *state) decide(id, L int, record bool, st *Stats, ar *arena) (int, coverRec) {
	xopts := expand.Options{LowDepth: s.opts.LowDepth, MaxNodes: s.opts.MaxExpand}
	// Structural K-cut of height <= L? A fast pass asks the node's cut
	// witness first: when it holds, Build+KCut would succeed, so both are
	// skipped. Recording passes and the full-sweep reference always run
	// flow, so covers come from flow cuts and the reference stays flow-only.
	st.CutChecks++
	faultinject.CutCheck()
	wt := &s.wits[id]
	if !record && !s.fullSweep && s.witnessHolds(wt, L, ar) {
		st.CutWitnessHits++
		return L, coverRec{}
	}
	st.ExpandBuilds++
	phase(ar, obs.OpExpand)
	x, built := ar.xb.Build(s.c, id, s.labels, s.phi, L, xopts)
	ar.built = built
	if built {
		phase(ar, obs.OpFlow)
		res, ok := ar.ca.KCut(x, s.opts.K)
		phase(ar, obs.OpLabel)
		if ok {
			wt.record(x, res)
			var rec coverRec
			if record {
				rec = s.structuralRec(x, res, ar)
			}
			return L, rec
		}
	} else {
		phase(ar, obs.OpLabel)
	}
	// TurboSYN: resynthesize a wider, lower cut. Fast passes back off on
	// label-pumping nodes (see the field comment); recording passes always
	// attempt.
	if s.opts.Decompose && (record || s.bumps[id] < 8 || L >= s.nextDecomp[id]) {
		if tree, cutReps, ok := s.tryDecompose(id, L, st, ar); ok {
			s.nextDecomp[id] = 0
			return L, coverRec{cut: cutReps, tree: tree}
		}
		step := s.bumps[id] / 2
		if step < 1 {
			step = 1
		}
		s.nextDecomp[id] = L + step
	}
	// Settle for L+1; the direct-fanin cut realizes it: every direct fanin
	// replica has eff <= L+1 by the definition of L, and the input netlist
	// is K-bounded, so the cut below never fails on a well-formed graph.
	var rec coverRec
	if record {
		if ar.built {
			// Reuse whatever region the L build (or resynthesis's frontier
			// build and its tighter probes) expanded; re-marking it for L+1
			// keeps every valid cut and the extra depth can only expose
			// better ones.
			st.ExpandReuses++
			x = ar.xb.Loosen(L + 1)
		} else {
			// An expansion at bound L (or a tighter probe) overflowed the
			// node cap; the L+1 region is smaller and may still fit.
			st.ExpandBuilds++
			phase(ar, obs.OpExpand)
			var ok bool
			x, ok = ar.xb.Build(s.c, id, s.labels, s.phi, L+1, xopts)
			if !ok {
				panic("core: cannot expand for the trivial cut")
			}
		}
		phase(ar, obs.OpFlow)
		res, ok := ar.ca.KCut(x, s.opts.K)
		phase(ar, obs.OpLabel)
		if !ok {
			panic("core: the direct-fanin cut must exist at height L+1")
		}
		rec = s.structuralRec(x, res, ar)
	}
	return L + 1, rec
}

// tryDecompose searches cuts of heights L-1, L-2, ... (width <= Cmax) whose
// cone function decomposes into a tree of K-LUTs of depth h+1, realizing
// label L (the paper's sequential functional decomposition).
//
// The resynthesis cuts come from the strict candidate frontier (LowDepth 0),
// not from decide's structural expansion: expanding through candidates lets
// a Cmax-wide cut reach into deep cones that rarely decompose, at the cost
// of flow and cone-function time. So tryDecompose rebuilds E_v at bound L on
// the frontier once; dropping the bound only grows the expanded region, so
// each probe then Tightens the arena's builder in place instead of
// re-expanding from scratch.
func (s *state) tryDecompose(id, L int, st *Stats, ar *arena) (*decomp.Tree, []Replica, bool) {
	if faultinject.BudgetExhausted(id) {
		// Injected budget exhaustion: behave exactly like a real one — the
		// node degrades to the structural feasibility check (or aborts under
		// Strict).
		s.degrade(st, ar, "injected", id, 0)
		return nil, nil, false
	}
	// estats collects the decomposer's effort counters (bound sets actually
	// examined, tier outcomes); observability only, never part of the cache
	// key.
	var estats decomp.EffortStats
	defer func() {
		st.BoundSetsExamined += estats.BoundSetsExamined
		st.RothKarpCalls += estats.RothKarpCalls
		st.ShannonSplits += estats.ShannonSplits
		st.DisjointPeels += estats.DisjointPeels
	}()
	st.ExpandBuilds++
	phase(ar, obs.OpExpand)
	if _, ok := ar.xb.Build(s.c, id, s.labels, s.phi, L, expand.Options{MaxNodes: s.opts.MaxExpand}); !ok {
		// Every tighter bound expands a superset and fails the same way.
		ar.built = false
		phase(ar, obs.OpLabel)
		return nil, nil, false
	}
	ar.built = true
	for h := 1; h <= maxH; h++ {
		phase(ar, obs.OpExpand)
		x, ok := ar.xb.Tighten(L - h)
		if !ok {
			// The extension overflowed the node cap mid-relaxation, leaving
			// the region partially extended; flag the expansion unusable so
			// decide's settle path rebuilds instead of re-marking it.
			ar.built = false
			phase(ar, obs.OpLabel)
			return nil, nil, false
		}
		st.ExpandReuses++
		phase(ar, obs.OpFlow)
		// The minimum cut of any width up to Cmax: the resynthesis cut.
		res, okCut := ar.ca.KCut(x, cmax)
		phase(ar, obs.OpDecompose)
		if !okCut {
			phase(ar, obs.OpLabel)
			return nil, nil, false // even Cmax-wide cuts are gone; deeper is worse
		}
		st.DecompAttempts++
		fn, reps := s.coneFunction(x, res, ar)
		// Bound-set priority: earliest effective arrival first, so early
		// signals sink toward the leaves (the paper's FlowSYN ordering).
		prio := make([]int, len(reps))
		for i := range prio {
			prio[i] = i
		}
		eff := func(r Replica) int { return s.labels[r.Orig] - s.phi*r.W }
		sort.SliceStable(prio, func(a, b int) bool { return eff(reps[prio[a]]) < eff(reps[prio[b]]) })
		// Decompose the NPN-canonical form of the cone function, with the
		// priority order mapped through the same transform, and map the
		// resulting tree back through the inverse. One cached canonical tree
		// then serves every input-permuted/negated variant of the class —
		// within a run, across probes, and across runs via the persisted log —
		// and because cached replay and fresh computation are the same pure
		// function of the canonical key, warm results stay bit-identical to
		// cold ones.
		canon, ctr := ar.npnCanon(fn)
		canonPrio := make([]int, len(prio))
		for i, p := range prio {
			canonPrio[i] = ctr.Perm[p]
		}
		effort := decomp.Effort{MaxBoundSets: s.opts.RothKarpBudget, Stats: &estats}
		key := decompKey(s.opts.K, h+1, canonPrio, canon, effort)
		entry, cached := s.cache.lookup(key, s.conc)
		if cached && !ctr.Identity() {
			s.conc.cacheNPN.Add(1)
		}
		if ar.ring != nil {
			if cached {
				ar.ring.Instant(obs.OpCacheHit, int64(id), int64(h))
			} else {
				ar.ring.Instant(obs.OpCacheMiss, int64(id), int64(h))
			}
		}
		if !cached {
			examinedBefore := estats.BoundSetsExamined
			var tDec int64
			if ar.ring != nil {
				tDec = ar.ring.Now()
			}
			tree, ok, degraded := decomp.DecomposeEffort(canon, s.opts.K, h+1, canonPrio, effort)
			if ar.ring != nil {
				// One span per fresh Roth-Karp search (args: node, bound sets
				// examined); cache replays are instants only.
				ar.ring.Span(obs.OpDecompose, tDec, int64(id),
					int64(estats.BoundSetsExamined-examinedBefore))
			}
			if !ok {
				tree = nil
			}
			entry = decompEntry{tree: tree, degraded: degraded}
			s.cache.store(key, entry)
		}
		if entry.degraded {
			// The budget truncated the search (whether computed now or
			// replayed from the cache): the node may settle for a worse
			// cover than the exact search would find. Count it — or abort,
			// under Strict.
			if !s.degrade(st, ar, "rothkarp-candidates", id, s.opts.RothKarpBudget) {
				phase(ar, obs.OpLabel)
				return nil, nil, false
			}
		}
		if entry.tree == nil {
			continue
		}
		st.Decompositions++
		phase(ar, obs.OpLabel)
		return decomp.ApplyNPNToTree(entry.tree, ctr.Inverse()), reps, true
	}
	phase(ar, obs.OpLabel)
	return nil, nil, false
}

// decompKey identifies one DecomposeEffort call. The priority order is part
// of the key: DecomposeEffort's window scan is capped, so both the found tree and
// whether one is found at all depend on it. The effort budget is part of
// the key for the same reason — a truncated search and an exact one are
// different computations. Keying on the full input makes the cached value
// equal to a fresh computation, which in turn makes cache sharing across
// workers, probes and runs order-independent.
//
// The key is a compact self-delimiting byte string (callers pass the
// NPN-canonical function, so it doubles as the persisted log's key): K and
// depth-budget bytes, a zero byte, the uvarint bound-set budget,
// length-prefixed priority bytes, then the variable count and the table's
// word bytes.
func decompKey(k, depthBudget int, prio []int, fn *logic.TT, eff decomp.Effort) string {
	b := make([]byte, 0, 16+len(prio)+8*(1+(1<<uint(fn.NumVars()))/64))
	b = append(b, byte(k), byte(depthBudget))
	b = append(b, 0) // the retired BDD budget's slot: keeps cachelog.Version 1 logs valid
	b = binary.AppendUvarint(b, uint64(eff.MaxBoundSets))
	b = append(b, byte(len(prio)))
	for _, p := range prio {
		b = append(b, byte(p))
	}
	b = append(b, byte(fn.NumVars()))
	b = fn.AppendWordBytes(b)
	return string(b)
}

// structuralRec converts a structural cut into a cover record: a
// single-node tree computing the cone function over the cut signals.
func (s *state) structuralRec(x *expand.Expanded, res *cut.Result, ar *arena) coverRec {
	fn, reps := s.coneFunction(x, res, ar)
	children := make([]int, len(reps))
	for i := range children {
		children[i] = i
	}
	tree := &decomp.Tree{NumInputs: len(reps)}
	tree.Nodes = append(tree.Nodes, decomp.TreeNode{Func: fn, Children: children})
	return coverRec{cut: reps, tree: tree}
}

// coneFunction computes the cone's Boolean function over the cut signals
// (variable j = cut replica j) and the replica list. The variable and memo
// tables live in the arena, indexed by replica id, and every transient table
// — cut-variable projections, composition intermediates — cycles through the
// arena's truth-table pool; only the replica list and the returned root
// function (cloned out of the pool, since callers retain it past the next
// evaluation) are allocated.
func (s *state) coneFunction(x *expand.Expanded, res *cut.Result, ar *arena) (*logic.TT, []Replica) {
	m := len(res.Cut)
	if m > logic.MaxVars {
		panic(fmt.Sprintf("core: cone with %d inputs", m))
	}
	n := len(x.Nodes)
	if cap(ar.varOf) < n {
		ar.varOf = make([]int, n)
		ar.memo = make([]*logic.TT, n)
	}
	varOf := ar.varOf[:n]
	memo := ar.memo[:n]
	for i := 0; i < n; i++ {
		varOf[i] = -1
		memo[i] = nil
	}
	reps := make([]Replica, m)
	for j, repID := range res.Cut {
		varOf[repID] = j
		reps[j] = Replica{Orig: x.Nodes[repID].Orig, W: x.Nodes[repID].W}
	}
	var eval func(repID int) *logic.TT
	eval = func(repID int) *logic.TT {
		if tt := memo[repID]; tt != nil {
			return tt
		}
		var tt *logic.TT
		if j := varOf[repID]; j >= 0 {
			tt = ar.tt.Get(m).SetVar(j)
			memo[repID] = tt
			return tt
		}
		orig := s.c.Nodes[x.Nodes[repID].Orig]
		children := x.Fanins[repID]
		if len(children) != len(orig.Fanins) {
			panic("core: cone interior replica lacks expanded fanins")
		}
		subs := make([]*logic.TT, len(children))
		for i, ch := range children {
			subs[i] = eval(ch)
		}
		if len(subs) == 0 {
			_, v := orig.Func.IsConst()
			tt = ar.tt.Get(m).SetConst(v)
		} else {
			tt = orig.Func.Compose(subs, &ar.tt)
		}
		memo[repID] = tt
		return tt
	}
	fn := eval(expand.Root).Clone()
	for i := range memo {
		ar.tt.Put(memo[i]) // nil-safe; fn is a clone, so the root pools too
	}
	return fn, reps
}

// sccIsolated reports whether no node of the component is supported from
// the ground in the predecessor graph: ground nodes are PIs, constants and
// nodes with label <= 1; a support edge e(u,v) is present when
// l(u) - phi*w(e) + 1 >= l(v). Total isolation certifies a positive loop
// (the paper's PLD, Theorem 2).
//
// The walk is restricted to the component itself plus completed components
// (s.compDone), whose labels are final. That set is a superset of the
// component's ancestors, and support can only reach a member through its
// ancestors — every edge into the
// component comes from a direct predecessor, and by induction every path
// into an ancestor stays within ancestors — so the extra allowed nodes can
// pick up junk reach marks but never influence whether a member is
// reached. The restriction therefore never changes the verdict; what it
// buys is that the walk reads only labels that are final or owned by this
// component, keeping the check race-free and schedule-independent.
func (s *state) sccIsolated(comp int, ar *arena) bool {
	n := s.c.NumNodes()
	allowed := func(id int) bool {
		c := s.sccs.Comp[id]
		return c == comp || s.compDone[c].Load()
	}
	if cap(ar.reach) < n {
		ar.reach = make([]bool, n)
		ar.rqueue = make([]int, 0, n)
	}
	reach := ar.reach[:n]
	for i := range reach {
		reach[i] = false
	}
	queue := ar.rqueue[:0]
	for id := 0; id < n; id++ {
		if allowed(id) && s.labels[id] <= 1 {
			reach[id] = true
			queue = append(queue, id)
		}
	}
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, fo := range s.c.Fanouts(u) {
			if reach[fo.To] || !allowed(fo.To) {
				continue
			}
			if s.labels[u]-s.phi*fo.Weight+1 >= s.labels[fo.To] {
				reach[fo.To] = true
				queue = append(queue, fo.To)
			}
		}
	}
	ar.rqueue = queue[:0]
	for _, id := range s.sccs.Members[comp] {
		if reach[id] {
			return false
		}
	}
	return true
}
