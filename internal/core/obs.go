package core

import (
	"sync/atomic"

	"turbosyn/internal/obs"
	"turbosyn/internal/prof"
)

// phase switches both observability planes for the calling worker in one
// call: the pprof goroutine label (when -cpuprofile profiling is enabled)
// and the worker ring's stage span (when tracing is enabled). With both off
// it costs two predictable branches and allocates nothing, preserving the
// warm structural sweep's zero-allocation invariant.
func phase(ar *arena, op obs.Op) {
	prof.Phase(op)
	if ar.ring != nil {
		ar.ring.Phase(op, int64(ar.curNode))
	}
}

// counters is the live counter set of one public entry point, shared by
// every probe of the call and written directly where the events happen:
// scheduler, cache and search events one atomic add each, label-sweep
// totals once per sweep (never per node). The progress ticker samples it
// while the run is live — a monotone, slightly torn view, which is all a
// progress report needs — and call.end folds it into the call's Stats once.
// Peaks are lock-free running maxima (see raise).
type counters struct {
	workers        atomic.Int64 // widest worker pool of any probe
	tasks          atomic.Int64 // components pulled from the ready queue
	inlineTasks    atomic.Int64 // trivial components chained inline (taskGrain)
	queueDepth     atomic.Int64 // ready-queue depth at the last push or pull
	queueDepthPeak atomic.Int64
	busyPeak       atomic.Int64 // peak simultaneously busy pool workers
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cachePersisted atomic.Int64 // hits served by entries loaded from a CacheDir log
	cacheNPN       atomic.Int64 // hits reached through a non-identity NPN transform
	probesLaunched atomic.Int64
	probesFinished atomic.Int64 // launched minus finished = probes in flight
	iterations     atomic.Int64 // live mirror of Stats.Iterations
	nodeVisits     atomic.Int64 // live mirror of Stats.SweepNodeVisits
	dirtySkips     atomic.Int64 // live mirror of Stats.DirtySkips
	worklistDepth  atomic.Int64 // members the last fast pass drained
	worklistPeak   atomic.Int64
	degradations   atomic.Int64 // live mirror of Stats.Degradations
	arenaPeakBytes atomic.Int64 // busiest scratch arena's footprint
}

// raise lifts peak to v if v is larger (a lock-free running maximum).
func raise(peak *atomic.Int64, v int) {
	for cur := peak.Load(); int64(v) > cur && !peak.CompareAndSwap(cur, int64(v)); cur = peak.Load() {
	}
}

// gauge records a live depth and raises its high-water mark.
func gauge(cur, peak *atomic.Int64, v int) {
	cur.Store(int64(v))
	raise(peak, v)
}

// sampler builds the progress tracker's sampler: a closure the ticker
// goroutine calls at its reporting interval to read the counters (and, when
// tracing, the recorder's event totals).
func (c *counters) sampler(rec *obs.Recorder) func() obs.Counters {
	return func() obs.Counters {
		out := obs.Counters{
			Workers:         int(c.workers.Load()),
			NodesLabeled:    int(c.nodeVisits.Load()),
			NodesSkipped:    int(c.dirtySkips.Load()),
			Iterations:      int(c.iterations.Load()),
			ProbesLaunched:  int(c.probesLaunched.Load()),
			ProbesFinished:  int(c.probesFinished.Load()),
			ReadyQueueDepth: int(c.queueDepth.Load()),
			QueueDepthPeak:  int(c.queueDepthPeak.Load()),
			WorklistDepth:   int(c.worklistDepth.Load()),
			WorklistPeak:    int(c.worklistPeak.Load()),
			Degradations:    int(c.degradations.Load()),
			ArenaPeakBytes:  int(c.arenaPeakBytes.Load()),
			CacheHits:       int(c.cacheHits.Load()),
			CacheMisses:     int(c.cacheMisses.Load()),
			CachePersisted:  int(c.cachePersisted.Load()),
		}
		if rec != nil {
			out.TraceEvents, out.TraceDropped = rec.Totals()
		}
		return out
	}
}

// fold merges the counters that exist only here into st. The live mirrors
// (iterations, visits, skips, degradations, arena bytes) are already in st
// through the per-probe Stats and are not folded again; the worklist peak
// is a max, so folding it is idempotent.
func (c *counters) fold(st *Stats) {
	st.Workers = max(st.Workers, int(c.workers.Load()))
	st.ParallelTasks += int(c.tasks.Load())
	st.InlineTasks += int(c.inlineTasks.Load())
	st.QueueDepthPeak = max(st.QueueDepthPeak, int(c.queueDepthPeak.Load()))
	st.WorkerOccupancy = max(st.WorkerOccupancy, int(c.busyPeak.Load()))
	st.CacheShardHits += int(c.cacheHits.Load())
	st.CacheShardMisses += int(c.cacheMisses.Load())
	st.CachePersistedHits += int(c.cachePersisted.Load())
	st.CacheNPNHits += int(c.cacheNPN.Load())
	st.ProbesLaunched += int(c.probesLaunched.Load())
	st.WorklistPeak = max(st.WorklistPeak, int(c.worklistPeak.Load()))
}

// probeVerdict encodes a probe outcome as the OpProbe span argument.
func probeVerdict(ok bool, err error) int64 {
	switch {
	case err != nil:
		return -1
	case ok:
		return 1
	}
	return 0
}
