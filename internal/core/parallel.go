package core

import (
	"sync"
	"sync/atomic"

	"turbosyn/internal/faultinject"
)

// taskGrain is the scheduler's batching target in node updates per
// dispatched task: chaining ~64 node updates amortizes ready-queue traffic
// over the long runs of near-singleton components real K-bounded
// condensations exhibit, while staying far below a typical component level's
// total work, so load balance is unaffected.
const taskGrain = 64

// runParallel is the dataflow-scheduled variant of run: every component of
// the SCC condensation carries an atomic count of unfinished predecessor
// components, enters a bounded ready queue the moment that count hits zero,
// and is executed by whichever pool worker pulls it — no level barriers
// anywhere. The scheduler preserves exactly the invariant the barriers used
// to provide: a component starts only after its last predecessor finished,
// so every label it can read outside itself is final. Within a component
// the unmodified sequential iteration runs, per-component state is written
// only by the worker owning the component, work counters accumulate into
// per-worker Stats merged after the run, and the
// shared decomposition cache is keyed on full DecomposeEffort inputs — which
// together keep the parallel path bit-identical to the sequential one (the
// golden equivalence test enforces this).
//
// Real K-bounded condensations are dominated by long runs of near-singleton
// components; to keep those from paying one queue round-trip each, a worker
// that releases a trivial successor (singleton, acyclic) chains it inline
// until roughly taskGrain node updates have accumulated, and only then
// returns to the queue. Chaining is pure scheduling: an inline run is exactly
// a push immediately followed by a pop by the same worker.
//
// run calls it with 2 <= workers <= the number of components carrying work.
func (s *state) runParallel(workers int) (bool, error) {
	nc := s.sccs.NumComps()

	// Per-component work summary, precomputed once per circuit in analyze
	// (it is invariant across probes and runs). A component with no
	// updatable member (PIs, constant sources) is final from initialization
	// and completes without dispatch; trivial components are eligible for
	// inline chaining.
	updates := s.an.updates // updatable members per component
	trivial := s.an.trivial
	workCount := s.an.workCount

	// The dependency countdown lives on the pooled state (pendingBuf): the
	// condensation of a 100k-gate netlist has on the order of the gate count
	// in components, so allocating it per probe dominated probe setup at
	// that scale. It is fully re-initialized here; per-worker Stats
	// accumulators are worker-pool-sized (small) and stay per-run.
	indeg := s.an.indeg
	pending := s.pendingBuf
	for comp, deg := range indeg {
		pending[comp].Store(int32(deg))
	}
	workerStats := make([]Stats, workers)
	var (
		aborted   atomic.Bool
		remaining atomic.Int64
		busy      atomic.Int64
	)
	remaining.Store(int64(nc))
	// Bounded ready queue: at most one slot per schedulable component, so
	// enqueues never block and the close below cannot race a send.
	ready := make(chan int, workCount)
	// closeReady shuts the queue exactly once: normally when the last
	// component completes, exceptionally from a worker's top-level panic
	// recovery (where the component's bookkeeping is unrecoverable and the
	// only safe move is to stop dispatching and let the pool drain).
	var closeOnce sync.Once
	closeReady := func() { closeOnce.Do(func() { close(ready) }) }

	// finish marks comp complete and releases its successors. Newly-ready
	// components with no work complete on the spot (cascading); at most one
	// trivial successor is kept back for inline chaining when the worker's
	// grain budget allows; everything else enters the ready queue. Returns
	// the inline component, or -1. When the last component completes, the
	// queue is closed: every enqueue of a component happens before that
	// component's own completion, so no send can follow the close.
	finish := func(comp int, wantInline bool) int {
		next := -1
		stack := [...]int{comp}
		cascade := stack[:1:1]
		for len(cascade) > 0 {
			c := cascade[len(cascade)-1]
			cascade = cascade[:len(cascade)-1]
			for _, d := range s.sccs.DAG[c] {
				if pending[d].Add(-1) != 0 {
					continue
				}
				switch {
				case updates[d] == 0:
					cascade = append(cascade, d)
				case wantInline && next < 0 && trivial[d]:
					next = d
					s.conc.inlineTasks.Add(1)
				default:
					ready <- d
					gauge(&s.conc.queueDepth, &s.conc.queueDepthPeak, len(ready))
				}
			}
			if remaining.Add(-1) == 0 {
				closeReady()
			}
		}
		return next
	}

	runOne := func(comp int, st *Stats, ar *arena) {
		if s.stopped() {
			// A sibling proved phi infeasible, the search cancelled the
			// probe, the context expired or a fatal error was recorded: stop
			// pumping labels, but keep completing components so the queue
			// drains and closes.
			aborted.Store(true)
			return
		}
		out := s.safeRunComp(comp, st, ar)
		if out != compConverged {
			aborted.Store(true)
			if out == compInfeasible {
				s.failed.Store(true)
			}
		}
	}

	// Seed the queue with the DAG roots in topological order before any
	// worker starts. Roots have no predecessors, so no worker can ever
	// release one: seeding from the initial in-degrees is the single
	// dispatch each component gets (seeding from the live pending counters
	// instead would race workers into double-dispatching a component whose
	// predecessors complete mid-seed). No-work roots cascade through finish
	// on the spot; the queue's capacity holds every schedulable component,
	// so the sends cannot block.
	for _, comp := range s.sccs.Order {
		if indeg[comp] != 0 {
			continue
		}
		if updates[comp] == 0 {
			finish(comp, false)
		} else {
			ready <- comp
			gauge(&s.conc.queueDepth, &s.conc.queueDepthPeak, len(ready))
		}
	}
	// Hand every worker its scratch arena before launch: arenaFor grows
	// s.arenas, so it must not run concurrently. Workers are fixed
	// goroutines for the whole run — there are no level boundaries left at
	// which arenas could be re-issued — so arena w is used by exactly one
	// goroutine from the first component to the last.
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		ar := s.arenaFor(w)
		ws := &workerStats[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Last-resort containment: safeRunComp already recovers panics
			// inside component iteration, so reaching this recover means the
			// scheduler's own bookkeeping (finish, counters) broke mid-flight
			// and this component's completion cannot be trusted. Record the
			// failure and close the queue so the rest of the pool drains and
			// joins instead of waiting for successors that will never become
			// ready. A sibling blocked in a queue send observes the close as
			// a send-on-closed panic and lands in its own recover here.
			defer func() {
				if r := recover(); r != nil {
					ar.poisoned = true
					s.fails.fail(newInternalError(r, "scheduler", -1, -1))
					aborted.Store(true)
					closeReady()
				}
			}()
			for comp := range ready {
				gauge(&s.conc.queueDepth, &s.conc.queueDepthPeak, len(ready))
				raise(&s.conc.busyPeak, int(busy.Add(1)))
				grain := 0
				for comp >= 0 {
					s.conc.tasks.Add(1)
					faultinject.Delay()
					runOne(comp, ws, ar)
					grain += updates[comp]
					comp = finish(comp, grain < taskGrain)
				}
				busy.Add(-1)
			}
		}()
	}
	wg.Wait()

	// Merge work counters in worker-id order. On feasible runs the totals
	// are schedule-independent regardless of merge order: every component's
	// iteration depends only on its own members and final upstream labels,
	// so its counter contributions are fixed, and Add's integer sums and
	// maxes commute. (On infeasible runs the amount of sibling work done
	// before everyone noticed the failure still depends on timing —
	// unchanged from the earlier per-component accumulators, which this
	// per-worker form replaces to drop the O(components) per-probe
	// allocation that dominated setup at the 100k-component scale.)
	for w := range workerStats {
		s.stats.Add(workerStats[w])
	}
	if aborted.Load() {
		return s.finishRun(false)
	}
	return s.finishRun(s.checkOutputs())
}
