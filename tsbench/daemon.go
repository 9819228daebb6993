package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"syscall"
	"time"

	"turbosyn"
	"turbosyn/internal/server"
)

// daemon_mix offered load: rates that keep the fleet about half busy.
const (
	quickRate     = 200.0 // quick jobs per second
	fsmRate       = 1.0   // FSM jobs per second
	tenantCount   = 4
	tracesSampled = 20 // job traces fetched by the traced run
	// quickJobs is the window of quick jobs a 99th percentile is taken
	// over: the smallest that leaves ten samples beyond it.
	quickJobs = 1000
)

// daemonOptions are the library options equivalent to a turbosynd job with
// the daemon's defaults (one engine worker, 64 MiB arena budget).
var daemonOptions = turbosyn.Options{Workers: 1, ArenaByteBudget: 64 << 20}

// job is one open-loop submission and what became of it.
type job struct {
	due    time.Duration // offset from the start of the loop
	quick  bool
	tenant string
	ref    *reference

	late                         float64 // ms the generator sent it after due
	submitMS, streamMS, resultMS float64
	latencyMS                    float64 // due to verified result in hand; +Inf if it failed
	id                           string
	status                       *server.JobStatus
	output                       []byte
	err                          error
}

// loopSeconds is how long the open loop runs: the run's seconds, but at
// least long enough for quickJobs quick jobs.
func loopSeconds(seconds float64) float64 { return math.Max(seconds, quickJobs/quickRate) }

// schedule lays out a run's jobs: quick jobs every 1/quickRate seconds and
// FSM jobs every 1/fsmRate seconds, each stream at a seeded phase, with
// seeded quick circuits and tenants. FSM jobs cycle through the fsm
// circuits.
func schedule(seed int64, seconds float64, quick, fsm []*reference) []*job {
	rng := rngFor(seed, "schedule")
	seconds = loopSeconds(seconds)
	var jobs []*job
	add := func(rate float64, pick func(i int) *reference, isQuick bool) {
		for i, t := 0, rng.Float64()/rate; t < seconds; i, t = i+1, t+1/rate {
			jobs = append(jobs, &job{
				due:    time.Duration(t * float64(time.Second)),
				quick:  isQuick,
				tenant: fmt.Sprintf("tenant%d", rng.Intn(tenantCount)),
				ref:    pick(i),
			})
		}
	}
	add(quickRate, func(int) *reference { return quick[rng.Intn(len(quick))] }, true)
	add(fsmRate, func(i int) *reference { return fsm[i%len(fsm)] }, false)
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].due < jobs[j].due })
	return jobs
}

// clock is the time source of the open loop; tests substitute a fake one.
type clock interface {
	Now() time.Time
	Sleep(ctx context.Context, d time.Duration)
}

type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Sleep(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// openLoop sends every job at its due time, whether or not earlier jobs
// have finished, to conns workers that run one job at a time each (so at
// most conns requests are in flight). A job's latency runs from its due
// time, so time spent waiting for a free worker counts against it.
func openLoop(ctx context.Context, clk clock, jobs []*job, conns int, run func(context.Context, *job)) {
	start := clk.Now()
	ch := make(chan *job, len(jobs)) // sized to the number of sends: the generator never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				run(ctx, j)
				if j.err == nil {
					j.latencyMS = ms(clk.Now().Sub(start) - j.due)
				} else {
					j.latencyMS = math.Inf(1)
				}
			}
		}()
	}
	for _, j := range jobs {
		clk.Sleep(ctx, j.due-clk.Now().Sub(start))
		j.late = ms(clk.Now().Sub(start) - j.due)
		ch <- j
	}
	close(ch)
	wg.Wait()
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// submitJob runs one job through the client: submit, follow the progress
// stream to the terminal state, fetch the result.
func submitJob(client *server.Client) func(context.Context, *job) {
	return func(ctx context.Context, j *job) {
		t := time.Now()
		j.id, j.err = client.Submit(ctx, server.JobSpec{Tenant: j.tenant, BLIF: string(j.ref.input)})
		j.submitMS = msSince(t)
		if j.err != nil {
			return
		}
		t = time.Now()
		j.status, j.err = client.Stream(ctx, j.id, nil)
		j.streamMS = msSince(t)
		if j.err != nil {
			return
		}
		if j.status.State != server.StateDone {
			j.err = fmt.Errorf("job %s ended %s: %v", j.id, j.status.State, j.status.Err())
			return
		}
		t = time.Now()
		j.output, j.err = client.Result(ctx, j.id)
		j.resultMS = msSince(t)
	}
}

// quickLatency returns the quick-job latency median, and the median of the
// 99th percentiles of consecutive windows of quickJobs jobs, so that one
// disturbed window does not move the tail. ok is false when there are too
// few jobs for a single window.
func quickLatency(lat []float64) (p50, p99 float64, ok bool) {
	var tails []float64
	for i := 0; i+quickJobs <= len(lat); i += quickJobs {
		tails = append(tails, percentile(lat[i:i+quickJobs], 99))
	}
	p, okP := tailPercentile(quickJobs)
	return percentile(lat, 50), median(tails), okP && p >= 99 && len(tails) > 0
}

// daemon is a running turbosynd process.
type daemon struct {
	cmd        *exec.Cmd
	base       string
	journal    string
	logDone    chan struct{}
	drainedLog map[string]any // the daemon's final "drained clean" record
}

// startDaemon starts turbosynd on a loopback port and returns once
// /healthz answers, with the time that took. Untraced runs switch the
// daemon's per-job trace recording off, as end-to-end metrics are measured
// with tracing off.
func startDaemon(ctx context.Context, cfg config, journal string) (*daemon, float64, error) {
	args := []string{"-addr", "127.0.0.1:0", "-fleet", strconv.Itoa(runtime.NumCPU()),
		"-journal-dir", journal, "-log-json"}
	if !cfg.trace {
		args = append(args, "-trace-ring", "-1")
	}
	cmd := exec.Command(filepath.Join(cfg.bin, "turbosynd"), args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	d := &daemon{cmd: cmd, journal: journal, logDone: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.logDone)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			var rec map[string]any
			if json.Unmarshal(sc.Bytes(), &rec) != nil {
				continue
			}
			switch rec["msg"] {
			case "turbosynd serving":
				addr <- fmt.Sprint(rec["addr"])
			case "drained clean":
				d.drainedLog = rec
			}
		}
		io.Copy(io.Discard, stderr)
	}()
	fail := func(err error) (*daemon, float64, error) {
		cmd.Process.Kill()
		<-d.logDone
		cmd.Wait()
		return nil, 0, err
	}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.logDone:
		return fail(errors.New("turbosynd exited before serving"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("turbosynd did not report its address within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	for {
		resp, err := http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t).Seconds(), nil
			}
		}
		if time.Since(t) > 30*time.Second || ctx.Err() != nil {
			return fail(fmt.Errorf("turbosynd /healthz did not answer: %v", err))
		}
		time.Sleep(time.Millisecond)
	}
}

// drain sends SIGTERM and waits for the daemon to finish draining and exit.
func (d *daemon) drain() (*os.ProcessState, error) {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.logDone:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill()
		<-d.logDone
	}
	err := d.cmd.Wait()
	return d.cmd.ProcessState, err
}

func (d *daemon) statz(ctx context.Context) (*server.Stats, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/statz", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st server.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("statz: %w", err)
	}
	return &st, nil
}

func runDaemonMix(ctx context.Context, cfg config, rep *report) error {
	return daemonMix(ctx, cfg, rep, false)
}

func traceDaemonMix(ctx context.Context, cfg config, rep *report) error {
	return daemonMix(ctx, cfg, rep, true)
}

// daemonMix runs the open loop against turbosynd. Untraced, it reports the
// end-to-end metrics; traced, the engine layers (from traced library runs
// of the FSM circuits), /statz deltas, client spans and sampled job traces.
func daemonMix(ctx context.Context, cfg config, rep *report, traced bool) error {
	fsmCircuits, quickCircuits := fsmPool(cfg.seed), quickPool(cfg.seed)
	var l layers
	fsmRefs := make([]*reference, len(fsmCircuits))
	quickRefs := make([]*reference, len(quickCircuits))
	var err error
	t := time.Now()
	for i, c := range fsmCircuits {
		if traced {
			fsmRefs[i], err = l.traceLibrary(ctx, cfg.seed, c, daemonOptions, rep)
		} else {
			fsmRefs[i], err = buildReference(ctx, cfg.seed, c, daemonOptions)
		}
		if err != nil {
			return err
		}
	}
	for i, c := range quickCircuits {
		if quickRefs[i], err = buildReference(ctx, cfg.seed, c, daemonOptions); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "references built and checked in %.1f ms\n", msSince(t))

	// Set-up: daemon start until /healthz answers, repeated; the last
	// daemon serves the run.
	var d *daemon
	var setup []float64
	for start := time.Now(); !setupDone(start, len(setup)); {
		if d != nil {
			// turbosynd installs its SIGTERM handler only after it starts
			// answering, so a daemon stopped this early may die by the
			// signal instead of draining; it holds no jobs either way.
			d.drain()
		}
		var s float64
		if d, s, err = startDaemon(ctx, cfg, filepath.Join(cfg.work, fmt.Sprintf("journal%d", len(setup)))); err != nil {
			return err
		}
		setup = append(setup, s)
	}

	conns := runtime.NumCPU()
	client := server.NewClient(d.base, "")
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxConnsPerHost, tr.MaxIdleConnsPerHost = conns, conns
	client.HTTPClient = &http.Client{Transport: tr, Timeout: 60 * time.Second}

	before, err := d.statz(ctx)
	if err != nil {
		d.drain()
		return err
	}
	jobs := schedule(cfg.seed, cfg.seconds, quickRefs, fsmRefs)
	openLoop(ctx, realClock{}, jobs, conns, submitJob(client))
	after, statzErr := d.statz(ctx)
	var sampled []*job
	if traced {
		sampled = sampleJobs(jobs)
	}
	traces := fetchTraces(ctx, d.base, sampled, rep)
	ps, drainErr := d.drain()
	if ctx.Err() != nil {
		return ctx.Err()
	}

	rep.attempted += len(jobs)
	var quickLat, fsmLat, late []float64
	for _, j := range jobs {
		late = append(late, j.late)
		switch {
		case j.err != nil:
			rep.failf("job for %s (%s): %v", j.tenant, j.ref.circuit.Name, j.err)
		case !bytes.Equal(j.output, j.ref.output):
			rep.failf("job %s: result differs from the checked library reference", j.id)
			j.latencyMS = math.Inf(1)
		case j.status.Result == nil || j.status.Result.Phi != j.ref.phi || j.status.Result.LUTs != j.ref.luts:
			rep.failf("job %s: reported %+v, reference phi=%d luts=%d", j.id, j.status.Result, j.ref.phi, j.ref.luts)
			j.latencyMS = math.Inf(1)
		}
		if j.quick {
			quickLat = append(quickLat, j.latencyMS)
		} else {
			fsmLat = append(fsmLat, j.latencyMS)
		}
	}
	checkAccounting(rep, jobs, after, statzErr, drainErr, d)

	if !traced {
		rep.set("setup_s", median(setup))
		rep.set("synth_s", median(fsmLat)/1e3)
		if ps != nil {
			cpu, rss := usage(ps)
			rep.set("cpu_s", cpu)
			rep.set("peak_rss_mb", rss)
		}
		var phi, luts int
		for _, r := range fsmRefs {
			phi, luts = phi+r.phi, luts+r.luts
		}
		rep.set("phi_sum", float64(phi))
		rep.set("lut_sum", float64(luts))
		p50, p99, _ := quickLatency(quickLat)
		fmt.Fprintf(os.Stderr, "%d quick jobs: p50 %.3f ms, p99 %.3f ms; %d FSM jobs: p50 %.3f ms; generator late p99 %.3f ms\n",
			len(quickLat), p50, p99, len(fsmLat), median(fsmLat), percentile(late, 99))
		return nil
	}

	l.set(rep)
	p50, p99, ok := quickLatency(quickLat)
	if !ok {
		rep.failf("%d quick jobs are too few for a 99th percentile", len(quickLat))
	}
	rep.set("quick_p50_ms", p50)
	rep.set("quick_p99_ms", p99)
	if after != nil {
		setStatzDeltas(rep, before, after)
	}
	var submit, stream, result []float64
	for _, j := range jobs {
		submit, stream, result = append(submit, j.submitMS), append(stream, j.streamMS), append(result, j.resultMS)
	}
	rep.set("client.submit_ms", mean(submit))
	rep.set("client.stream_ms", mean(stream))
	rep.set("client.result_ms", mean(result))
	rep.set("client.retries", float64(client.Retries()))
	rep.set("loadgen.late_p99_ms", percentile(late, 99))
	var engine, dispatch float64
	for _, spans := range traces {
		engine += coverage(spans, "probe", "map")
		for _, s := range spans {
			if s.name == "dispatch" {
				dispatch += s.end - s.begin
			}
		}
	}
	fmt.Fprintf(os.Stderr, "job traces sampled: %d\n", len(traces))
	rep.set("server.trace_engine_share", ratio(engine, dispatch))
	return nil
}

// checkAccounting verifies the daemon lost no job: /statz after the loop
// balances and matches what the generator saw, the drain log balances, and
// the journal holds no accepted job without a terminal record.
func checkAccounting(rep *report, jobs []*job, st *server.Stats, statzErr, drainErr error, d *daemon) {
	var submitted, done uint64
	for _, j := range jobs {
		if j.id != "" {
			submitted++
		}
		if j.status != nil && j.status.State == server.StateDone {
			done++
		}
	}
	switch {
	case statzErr != nil:
		rep.failf("final /statz: %v", statzErr)
	case st.Accepted != st.Done+st.Failed+st.Shed:
		rep.failf("/statz accepted %d != done %d + failed %d + shed %d", st.Accepted, st.Done, st.Failed, st.Shed)
	case st.Accepted != submitted || st.Done != done:
		rep.failf("/statz accepted %d done %d, generator submitted %d saw %d done", st.Accepted, st.Done, submitted, done)
	}
	if drainErr != nil {
		rep.failf("turbosynd drain: %v", drainErr)
	}
	if d.drainedLog == nil {
		rep.failf("turbosynd did not log a clean drain")
	} else if st != nil {
		var sum float64
		for _, k := range []string{"done", "failed", "shed"} {
			v, _ := d.drainedLog[k].(float64)
			sum += v
		}
		if sum != float64(st.Accepted) {
			rep.failf("drain accounted %v jobs, %d accepted", sum, st.Accepted)
		}
	}
	pending, _, err := server.LoadJournal(d.journal)
	if err != nil {
		rep.failf("journal: %v", err)
	} else if len(pending) > 0 {
		rep.failf("journal holds %d accepted jobs without a terminal record", len(pending))
	}
}

// setStatzDeltas reports the daemon's stage latencies over the run.
func setStatzDeltas(rep *report, before, after *server.Stats) {
	meanMS := func(stage string) float64 {
		a, b := after.Latency[stage], before.Latency[stage]
		return ratio(a.SumSeconds-b.SumSeconds, float64(a.Count-b.Count)) * 1e3
	}
	rep.set("server.admission_p99_ms", after.Latency["admission"].P99Seconds*1e3)
	rep.set("server.journal_append_mean_ms", meanMS("journal_append"))
	rep.set("server.queue_wait_mean_ms", meanMS("queue_wait"))
	rep.set("server.queue_wait_p99_ms", after.Latency["queue_wait"].P99Seconds*1e3)
	rep.set("server.run_mean_ms", meanMS("run"))
	deficit := 0
	for _, t := range after.Tenants {
		if t.FairShareDeficit > deficit {
			deficit = t.FairShareDeficit
		}
	}
	rep.set("jobqueue.fair_share_deficit_max", float64(deficit))
	var rejected uint64
	for reason, n := range after.Queue.Rejected {
		rejected += n - before.Queue.Rejected[reason]
	}
	rep.set("jobqueue.rejected", float64(rejected))
}

// sampleJobs picks the jobs whose traces the traced run fetches: evenly
// spaced over the run, FSM jobs first.
func sampleJobs(jobs []*job) []*job {
	var fsm, quick []*job
	for _, j := range jobs {
		if j.id == "" {
			continue
		}
		if j.quick {
			quick = append(quick, j)
		} else {
			fsm = append(fsm, j)
		}
	}
	var out []*job
	for _, group := range [][]*job{fsm, quick} {
		n := tracesSampled / 2
		for i := 0; i < n && len(group) > 0; i++ {
			out = append(out, group[i*len(group)/n])
		}
	}
	return out
}

// fetchTraces downloads and parses the stitched traces of jobs.
func fetchTraces(ctx context.Context, base string, jobs []*job, rep *report) [][]span {
	var out [][]span
	for _, j := range jobs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+j.id+"/trace", nil)
		if err != nil {
			rep.failf("trace %s: %v", j.id, err)
			continue
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			rep.failf("trace %s: %v", j.id, err)
			continue
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			rep.failf("trace %s: status %d: %v", j.id, resp.StatusCode, err)
			continue
		}
		spans, err := parseTrace(data)
		if err != nil {
			rep.failf("trace %s: %v", j.id, err)
			continue
		}
		out = append(out, spans)
	}
	return out
}
