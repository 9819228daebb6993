package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
)

// Metrics republishes the latest progress snapshot as live run metrics: a
// Prometheus text-format endpoint (ServeHTTP) and an expvar-compatible value
// (Expvar). Feed it from an Options.Progress callback:
//
//	m := &obs.Metrics{}
//	opts.Progress = m.Update
//	release := m.PublishExpvar()
//	defer release()
//	http.Handle("/metrics", m)
//
// Update is one atomic pointer store, so the callback adds nothing
// measurable to the snapshot path.
type Metrics struct {
	cur atomic.Pointer[Snapshot]
}

// expvarSlots backs PublishExpvar: expvar.Publish panics on a duplicate
// name and has no unpublish, so each name is published to the standard
// registry exactly once, as an indirection through a swappable function
// pointer. Re-publishing a name swaps the target; releasing swaps in nil.
var (
	expvarMu    sync.Mutex
	expvarSlots = map[string]*atomic.Pointer[func() any]{}
)

// PublishExpvar registers fn in the process-wide expvar registry under
// name, idempotently: unlike expvar.Publish, publishing the same name
// again never panics — the previous function is replaced (last writer
// wins). This is what lets many engine runs live in one daemon process.
// The returned release function detaches fn (the expvar value then reads
// as null) and frees the reference; calling it more than once is safe,
// and a later re-publish of the name wins over an earlier release.
func PublishExpvar(name string, fn func() any) (release func()) {
	expvarMu.Lock()
	slot, ok := expvarSlots[name]
	if !ok {
		slot = &atomic.Pointer[func() any]{}
		expvarSlots[name] = slot
		expvar.Publish(name, expvar.Func(func() any {
			if f := slot.Load(); f != nil && *f != nil {
				return (*f)()
			}
			return nil
		}))
	}
	slot.Store(&fn)
	expvarMu.Unlock()
	return func() {
		// Release only if fn is still the published target; a newer
		// publish under the same name must not be torn down by an old
		// release.
		expvarMu.Lock()
		if slot.Load() == &fn {
			slot.Store(nil)
		}
		expvarMu.Unlock()
	}
}

// PublishExpvar publishes the metrics' latest snapshot under "turbosyn".
// Other values go through the package-level PublishExpvar under their own
// names (turbosynd publishes its stats as "turbosynd").
func (m *Metrics) PublishExpvar() (release func()) {
	return PublishExpvar("turbosyn", m.Expvar)
}

// Update records the latest snapshot; use it directly as the progress
// callback (or call it from one).
func (m *Metrics) Update(s Snapshot) { m.cur.Store(&s) }

// Latest returns the most recent snapshot (zero value before the first
// Update).
func (m *Metrics) Latest() Snapshot {
	if s := m.cur.Load(); s != nil {
		return *s
	}
	return Snapshot{}
}

// Expvar returns the latest snapshot as a plain value for
// expvar.Publish(..., expvar.Func(m.Expvar)).
func (m *Metrics) Expvar() any { return m.Latest() }

// gauges lists the exported numeric series in stable order.
func (s Snapshot) gauges() []struct {
	name, help string
	value      float64
} {
	b := func(v bool) float64 {
		if v {
			return 1
		}
		return 0
	}
	return []struct {
		name, help string
		value      float64
	}{
		{"turbosyn_elapsed_seconds", "wall time since the run started", s.Elapsed.Seconds()},
		{"turbosyn_best_phi", "smallest feasible phi proven so far (-1 = none)", float64(s.BestPhi)},
		{"turbosyn_done", "1 once the run has delivered its final snapshot", b(s.Done)},
		{"turbosyn_workers", "effective worker-pool size", float64(s.Workers)},
		{"turbosyn_nodes_labeled_total", "member visits performed by label sweeps", float64(s.NodesLabeled)},
		{"turbosyn_nodes_skipped_total", "member visits elided by the dirty-set worklist", float64(s.NodesSkipped)},
		{"turbosyn_iterations_total", "label-update passes over SCC members", float64(s.Iterations)},
		{"turbosyn_probes_launched_total", "feasibility probes started", float64(s.ProbesLaunched)},
		{"turbosyn_probes_finished_total", "feasibility probes completed", float64(s.ProbesFinished)},
		{"turbosyn_ready_queue_depth", "current dataflow ready-queue depth", float64(s.ReadyQueueDepth)},
		{"turbosyn_ready_queue_depth_peak", "ready-queue depth high-water mark", float64(s.QueueDepthPeak)},
		{"turbosyn_worklist_depth", "dirty members drained by the last fast pass", float64(s.WorklistDepth)},
		{"turbosyn_worklist_depth_peak", "largest fast-pass worklist drain", float64(s.WorklistPeak)},
		{"turbosyn_degradations_total", "budget exhaustions absorbed", float64(s.Degradations)},
		{"turbosyn_arena_peak_bytes", "busiest scratch arena footprint", float64(s.ArenaPeakBytes)},
		{"turbosyn_cache_hits_total", "decomposition-cache hits", float64(s.CacheHits)},
		{"turbosyn_cache_misses_total", "decomposition-cache misses", float64(s.CacheMisses)},
		{"turbosyn_cache_persisted_hits_total", "decomposition-cache hits served from the persisted log", float64(s.CachePersisted)},
		{"turbosyn_trace_events_total", "trace events recorded", float64(s.TraceEvents)},
		{"turbosyn_trace_dropped_total", "trace events lost to ring wrap", float64(s.TraceDropped)},
	}
}

// ServeHTTP writes the latest snapshot in Prometheus text exposition format.
func (m *Metrics) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	s := m.Latest()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# HELP turbosyn_run_info run identity (labels carry the run id and phase)\n")
	fmt.Fprintf(w, "# TYPE turbosyn_run_info gauge\n")
	fmt.Fprintf(w, "turbosyn_run_info{run_id=%q,phase=%q} 1\n", s.RunID, s.Phase)
	gs := s.gauges()
	sort.SliceStable(gs, func(i, j int) bool { return gs[i].name < gs[j].name })
	for _, g := range gs {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", g.name, g.help, g.name, g.name, g.value)
	}
}
