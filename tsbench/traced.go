package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"turbosyn"
	"turbosyn/internal/core"
	"turbosyn/internal/netlist"
)

// traceRingCap sizes each per-worker ring of the traced run's recorder so
// that no event is dropped (the traced run fails otherwise).
const traceRingCap = 1 << 19

// engineOps are the engine span names the trace attributes time to, most
// specific first: where spans of several ops overlap in time (on one worker
// or across workers), the instant counts for the first of them.
var engineOps = []string{"decompose", "flow", "expand", "pld", "component", "probe", "map"}

// selfMetric names each op's self-time metric.
var selfMetric = map[string]string{
	"decompose": "self.decompose_ms", "flow": "self.flow_ms", "expand": "self.expand_ms", "pld": "self.pld_ms",
	"component": "self.comp_ms", "probe": "self.probe_ms", "map": "self.map_ms",
}

// layers accumulates traced library runs over one or more circuits.
type layers struct {
	parseMS, newMS, writeMS float64 // untraced sequence, benchmark spans
	tracedWallMS            float64 // traced sequence: parse, NewEngine, synthesize, write
	tracedNewMS             float64
	tracedWriteMS           float64
	postMS                  float64 // traced synthesis wall outside the first-to-last engine span extent
	untracedS, tracedS      float64 // SynthesizeContext wall times
	allocs, allocBytes      uint64
	stats                   core.Stats
	busyMS                  map[string]float64 // summed span durations per op
	selfMS                  map[string]float64 // wall-clock attribution per op
	abortedProbeMS          float64
	verifyMS                float64 // output checks, outside every other figure
	dropped                 int
}

// traceLibrary synthesizes src through the public library untraced, traced
// and untraced again, checks the outputs, adds what the runs measured to l
// and returns the first untraced run as a reference.
func (l *layers) traceLibrary(ctx context.Context, seed int64, src *netlist.Circuit, opts turbosyn.Options, rep *report) (*reference, error) {
	if l.busyMS == nil {
		l.busyMS, l.selfMS = map[string]float64{}, map[string]float64{}
	}
	input, err := blifText(src)
	if err != nil {
		return nil, err
	}
	rep.attempted++
	t := time.Now()
	c, err := turbosyn.ReadBLIF(bytes.NewReader(input))
	if err != nil {
		return nil, fmt.Errorf("%s: generated BLIF does not parse: %w", src.Name, err)
	}
	parseMS := msSince(t)
	l.parseMS += parseMS

	// Untraced: time and allocations of the engine alone, measured before
	// and after the traced run so that warm-up does not bias the tracing
	// overhead. Allocations come from the first run.
	untraced := func(first bool) (*turbosyn.Result, error) {
		t := time.Now()
		eng, err := turbosyn.NewEngine(c, opts)
		if err != nil {
			return nil, err
		}
		defer eng.Close()
		var m0, m1 runtime.MemStats
		if first {
			l.newMS += msSince(t)
			runtime.GC()
			runtime.ReadMemStats(&m0)
		}
		t = time.Now()
		res, err := eng.SynthesizeContext(ctx)
		l.untracedS += time.Since(t).Seconds() / 2
		if first {
			runtime.ReadMemStats(&m1)
			l.allocs += m1.Mallocs - m0.Mallocs
			l.allocBytes += m1.TotalAlloc - m0.TotalAlloc
		}
		return res, err
	}
	res, err := untraced(true)
	if err != nil {
		return nil, err
	}
	l.stats.Add(res.Stats)
	t = time.Now()
	out, err := blifText(res.Realized)
	if err != nil {
		return nil, err
	}
	l.writeMS += msSince(t)
	t = time.Now()
	if err := checkResult(seed, c, res, out); err != nil {
		rep.failf("%s: %v", c.Name, err)
	}
	l.verifyMS += msSince(t)

	// Traced: the same sequence with the recorder attached.
	rec := turbosyn.NewTraceRecorder(traceRingCap)
	topts := opts
	topts.Trace = rec
	t = time.Now()
	teng, err := turbosyn.NewEngine(c, topts)
	if err != nil {
		return nil, err
	}
	newMS := msSince(t)
	t = time.Now()
	tres, err := teng.SynthesizeContext(ctx)
	synthS := time.Since(t).Seconds()
	teng.Close()
	if err != nil {
		return nil, err
	}
	t = time.Now()
	tout, err := blifText(tres.Realized)
	if err != nil {
		return nil, err
	}
	writeMS := msSince(t)
	if !bytes.Equal(tout, out) {
		rep.failf("%s: tracing changed the output", c.Name)
	}
	l.tracedS += synthS
	l.tracedNewMS += newMS
	l.tracedWriteMS += writeMS
	l.tracedWallMS += parseMS + newMS + synthS*1e3 + writeMS
	l.dropped += tres.Stats.TraceDropped

	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf, ""); err != nil {
		return nil, err
	}
	spans, err := parseTrace(buf.Bytes())
	if err != nil {
		return nil, err
	}
	for _, s := range spans {
		l.busyMS[s.name] += (s.end - s.begin) / 1e3
		if s.name == "probe" && s.aborted {
			l.abortedProbeMS += (s.end - s.begin) / 1e3
		}
	}
	for op, us := range attribute(spans, engineOps) {
		l.selfMS[op] += us / 1e3
	}
	l.postMS += synthS*1e3 - extent(spans, engineOps)/1e3
	if _, err := untraced(false); err != nil {
		return nil, err
	}
	return &reference{circuit: c, input: input, output: out, phi: res.Phi, luts: res.LUTs}, nil
}

// set reports the accumulated per-layer metrics. The self.* metrics
// partition the traced sequence's wall time; self.other_ms is what no span
// accounts for, and post_ms is the share of it before the first engine span
// opens and after the last one closes.
func (l *layers) set(rep *report) {
	st := l.stats
	rep.set("netlist.parse_ms", l.parseMS)
	rep.set("netlist.write_ms", l.writeMS)
	rep.set("engine.new_ms", l.newMS)
	rep.set("core.probe_ms", l.busyMS["probe"])
	rep.set("core.probes", float64(st.ProbesLaunched))
	rep.set("core.probes_cancelled", float64(st.ProbesCancelled))
	rep.set("core.probe_waste_ratio", ratio(l.abortedProbeMS, l.busyMS["probe"]))
	rep.set("core.comp_ms", l.busyMS["component"])
	rep.set("core.iterations", float64(st.Iterations))
	rep.set("core.sweep_visits", float64(st.SweepNodeVisits))
	rep.set("core.dirty_skips", float64(st.DirtySkips))
	rep.set("core.skip_ratio", ratio(float64(st.DirtySkips), float64(st.SweepNodeVisits+st.DirtySkips)))
	rep.set("cut.checks", float64(st.CutChecks))
	rep.set("expand.builds", float64(st.ExpandBuilds))
	rep.set("expand.reuses", float64(st.ExpandReuses))
	rep.set("expand.reuse_ratio", ratio(float64(st.ExpandReuses), float64(st.ExpandBuilds+st.ExpandReuses)))
	rep.set("decomp.ms", l.busyMS["decompose"])
	rep.set("decomp.attempts", float64(st.DecompAttempts))
	rep.set("decomp.success_ratio", ratio(float64(st.Decompositions), float64(st.DecompAttempts)))
	rep.set("decomp.rothkarp_calls", float64(st.RothKarpCalls))
	rep.set("decomp.bound_sets", float64(st.BoundSetsExamined))
	rep.set("decomp.shannon", float64(st.ShannonSplits))
	rep.set("decomp.peels", float64(st.DisjointPeels))
	rep.set("decomp.cache_hit_ratio", ratio(float64(st.CacheShardHits), float64(st.CacheShardHits+st.CacheShardMisses)))
	rep.set("core.allocs", float64(l.allocs))
	rep.set("core.alloc_mb", float64(l.allocBytes)/(1<<20))
	rep.set("pld.checks", float64(st.PLDChecks))
	rep.set("pld.hits", float64(st.PLDHits))
	rep.set("sched.parallel_tasks", float64(st.ParallelTasks))
	rep.set("sched.inline_tasks", float64(st.InlineTasks))
	rep.set("sched.queue_peak", float64(st.QueueDepthPeak))
	rep.set("sched.occupancy_peak", float64(st.WorkerOccupancy))
	rep.set("arena.peak_mb", float64(st.ArenaPeakBytes)/(1<<20))
	rep.set("arena.pool_hit_ratio", ratio(float64(st.ArenaPoolHits), float64(st.ArenaCheckouts)))
	rep.set("post_ms", l.postMS)

	attributed := l.parseMS + l.tracedNewMS + l.tracedWriteMS
	rep.set("self.parse_ms", l.parseMS)
	rep.set("self.engine_new_ms", l.tracedNewMS)
	rep.set("self.write_ms", l.tracedWriteMS)
	for _, op := range engineOps {
		rep.set(selfMetric[op], l.selfMS[op])
		attributed += l.selfMS[op]
	}
	rep.set("self.other_ms", l.tracedWallMS-attributed)
	rep.set("trace.overhead_s", l.tracedS-l.untracedS)
	rep.set("trace.dropped", float64(l.dropped))
	rep.set("verify_ms", l.verifyMS)
	if l.dropped > 0 {
		rep.failf("the trace dropped %d events; raise traceRingCap", l.dropped)
	}
}

// traceEngine returns the traced run of a CLI workload: the seeded circuit
// through the public library, untraced and traced.
func traceEngine(gen func(int64) *netlist.Circuit) func(context.Context, config, *report) error {
	return func(ctx context.Context, cfg config, rep *report) error {
		var l layers
		if _, err := l.traceLibrary(ctx, cfg.seed, gen(cfg.seed), cliOptions, rep); err != nil {
			return err
		}
		l.set(rep)
		setServerMetricsAbsent(rep)
		return nil
	}
}

// setServerMetricsAbsent reports the daemon-only metrics as zero for the
// workloads that do not run the daemon.
func setServerMetricsAbsent(rep *report) {
	for _, m := range rep.names {
		for _, prefix := range []string{"server.", "jobqueue.", "client.", "loadgen.", "quick_"} {
			if strings.HasPrefix(m.Name, prefix) {
				rep.set(m.Name, 0)
			}
		}
	}
}

// span is one complete trace span; times in microseconds.
type span struct {
	name       string
	begin, end float64
	aborted    bool
}

// parseTrace extracts the complete spans of a Chrome trace document.
func parseTrace(data []byte) ([]span, error) {
	var doc struct {
		TraceEvents []struct {
			Name string   `json:"name"`
			Ph   string   `json:"ph"`
			TS   float64  `json:"ts"`
			Dur  *float64 `json:"dur"`
			Args struct {
				Aborted bool `json:"aborted"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	var out []span
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Dur != nil {
			out = append(out, span{ev.Name, ev.TS, ev.TS + *ev.Dur, ev.Args.Aborted})
		}
	}
	return out, nil
}

// attribute splits the wall-clock time covered by spans of the named ops
// among those ops: each instant goes to the first op in order that has a
// span open at that instant, on any thread. The result is in microseconds
// and sums to the coverage of all named spans.
func attribute(spans []span, order []string) map[string]float64 {
	rank := map[string]int{}
	for i, op := range order {
		rank[op] = i
	}
	type edge struct {
		t     float64
		rank  int
		delta int
	}
	var edges []edge
	for _, s := range spans {
		if r, ok := rank[s.name]; ok && s.end > s.begin {
			edges = append(edges, edge{s.begin, r, 1}, edge{s.end, r, -1})
		}
	}
	sort.Slice(edges, func(i, j int) bool { return edges[i].t < edges[j].t })
	open := make([]int, len(order))
	out := map[string]float64{}
	for i, e := range edges {
		if i > 0 {
			for r, n := range open {
				if n > 0 {
					out[order[r]] += e.t - edges[i-1].t
					break
				}
			}
		}
		open[e.rank] += e.delta
	}
	return out
}

// extent is the wall-clock time (µs) from the first begin to the last end
// of the spans of the named ops.
func extent(spans []span, ops []string) float64 {
	first, last := math.Inf(1), math.Inf(-1)
	for _, s := range spans {
		if slices.Contains(ops, s.name) {
			first, last = min(first, s.begin), max(last, s.end)
		}
	}
	if first > last {
		return 0
	}
	return last - first
}

// coverage is the wall-clock time (µs) during which at least one span of
// the named ops is open.
func coverage(spans []span, ops ...string) float64 {
	var total float64
	for _, us := range attribute(spans, ops) {
		total += us
	}
	return total
}
