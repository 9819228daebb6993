// Command turbosyn maps BLIF sequential circuits onto K-LUTs with the
// selected algorithm and writes the results as BLIF.
//
// Usage:
//
//	turbosyn -k 5 -alg turbosyn [-objective ratio|period] [-repeat N] [-o out.blif] in.blif [more.blif ...]
//
// Reading from stdin ("-") is supported. The tool prints a one-line summary
// per input (phi, LUT count, latency) on stderr — plus an aggregate line when
// mapping several files or repeating runs — and the mapped-and-realized
// netlists on stdout or -o. Each input gets one reusable engine: the circuit
// analysis, decomposition cache and worker arenas are built once and shared
// by every -repeat run of that file.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"time"

	"turbosyn"
	"turbosyn/internal/prof"
	"turbosyn/internal/server"
)

func main() {
	var (
		k          = flag.Int("k", 5, "LUT input count")
		alg        = flag.String("alg", "turbosyn", "algorithm: turbosyn | turbomap | flowsyns")
		objective  = flag.String("objective", "ratio", "objective: ratio (retiming+pipelining) | period (retiming only)")
		out        = flag.String("o", "", "output file (default stdout; only with a single input)")
		repeat     = flag.Int("repeat", 1, "synthesize each input this many times on one reusable engine (reports per-run time; results are identical across runs)")
		noPack     = flag.Bool("nopack", false, "skip LUT packing")
		raw        = flag.Bool("mapped", false, "emit the mapped network before retiming instead of the realized one")
		workers    = flag.Int("j", 0, "worker pool size (0 = all CPUs, 1 = sequential); results are identical for every setting")
		timeout    = flag.Duration("timeout", 0, "abort synthesis after this duration (0 = no limit); partial progress is reported")
		strict     = flag.Bool("strict", false, "treat resource-budget exhaustion as an error instead of degrading gracefully")
		rkBudget   = flag.Int("rk-budget", 0, "max Roth-Karp bound-set candidates per decomposition attempt (0 = unlimited)")
		cacheDir   = flag.String("decomp-cache", "", "persist the decomposition cache across runs in this directory (results stay bit-identical; warm runs skip the Roth-Karp searches)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file (samples carry a per-stage 'phase' label)")
		memProfile = flag.String("memprofile", "", "write an allocation profile to this file after synthesis")

		traceOut    = flag.String("trace", "", "write a Chrome/Perfetto trace (JSON) of the runs to this file; written even when a run aborts")
		verbose     = flag.Bool("v", false, "structured logging to stderr at debug level (per-probe verdicts, phase changes)")
		logJSON     = flag.Bool("log-json", false, "emit structured logs as JSON (info level; combine with -v for debug)")
		metricsAddr = flag.String("metrics-addr", "", "serve live run metrics on this address (/metrics Prometheus text, /debug/vars expvar)")

		serverURL = flag.String("server", "", "submit the inputs to a turbosynd daemon at this base URL instead of synthesizing locally (client mode; retries shed load with jittered backoff)")
		tenant    = flag.String("tenant", "", "tenant name for -server submissions (default anonymous)")
		priority  = flag.Int("priority", 0, "priority for -server submissions (higher runs first within the tenant)")
	)
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: turbosyn [flags] <in.blif | -> [more.blif ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	if err := checkModeFlags(flag.Visit, *serverURL != ""); err != nil {
		fatal(err)
	}
	files := flag.Args()
	if len(files) > 1 && *out != "" {
		fatal(fmt.Errorf("-o accepts a single input; got %d (multi-input netlists go to stdout, one .model after another)", len(files)))
	}
	if err := checkRanges(*repeat, *timeout); err != nil {
		fatal(err)
	}

	if *serverURL != "" {
		runClient(clientConfig{
			base: *serverURL, tenant: *tenant, priority: *priority,
			files: files, out: *out, timeout: *timeout,
			k: *k, alg: *alg, objective: *objective,
			noPack: *noPack, mapped: *raw, strict: *strict,
			rkBudget: *rkBudget,
		})
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		// Tag engine goroutines with their current stage so the profile can
		// be split with `go tool pprof -tagfocus phase=flow` etc.
		prof.Enable(true)
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := turbosyn.Options{
		K: *k, NoPack: *noPack,
		Workers: *workers,
		Strict:  *strict, RothKarpBudget: *rkBudget,
		CacheDir: *cacheDir,
	}
	var err error
	if opts.Algorithm, opts.Objective, err = turbosyn.ParseNames(*alg, *objective); err != nil {
		fatal(err)
	}
	opts.NoRealize = *raw

	// Observability wiring. The progress stream is always on and its latest
	// snapshot (held by the Metrics republisher) is the single source of
	// truth for live metrics and the partial-progress report on abort.
	met := &turbosyn.Metrics{}
	opts.Progress = met.Update
	if *verbose || *logJSON {
		level := slog.LevelInfo
		if *verbose {
			level = slog.LevelDebug
		}
		hopts := &slog.HandlerOptions{Level: level}
		if *logJSON {
			opts.Logger = slog.New(slog.NewJSONHandler(os.Stderr, hopts))
		} else {
			opts.Logger = slog.New(slog.NewTextHandler(os.Stderr, hopts))
		}
	}
	if *traceOut != "" {
		// A generous per-worker ring (~1.5 MiB each) so typical runs retain
		// every span; long runs wrap and keep the most recent events, with
		// the drop count reported in the trace's otherData. One recorder
		// spans every input and repeat, so the trace shows them end to end.
		opts.Trace = turbosyn.NewTraceRecorder(1 << 15)
	}
	// writeTrace flushes the recorded spans; safe on every exit path because
	// the engine joins all its goroutines before SynthesizeContext returns,
	// aborts included.
	writeTrace := func() {
		if opts.Trace == nil {
			return
		}
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := opts.Trace.WriteTrace(f, met.Latest().RunID); err != nil {
			fatal(err)
		}
	}
	if *metricsAddr != "" {
		// Idempotent publication: a second engine in the same process (or a
		// test running main twice) re-targets the "turbosyn" expvar instead
		// of panicking in expvar.Publish.
		unpublish := met.PublishExpvar()
		defer unpublish()
		mux := http.NewServeMux()
		mux.Handle("/metrics", met)
		mux.Handle("/debug/vars", expvar.Handler())
		// The daemon's hardened scaffolding (header timeouts, graceful
		// shutdown) rather than a bare ListenAndServe: a stuck scraper cannot
		// pin the listener, and exiting drains in-flight scrapes.
		srv := server.NewHTTPServer(*metricsAddr, mux)
		_, shutdown, err := server.ListenAndServeBackground(srv, func(err error) {
			fmt.Fprintln(os.Stderr, "turbosyn: metrics server:", err)
		})
		if err != nil {
			fatal(fmt.Errorf("metrics server: %w", err))
		}
		defer func() {
			sctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			shutdown(sctx)
		}()
	}

	// Ctrl-C (and -timeout) cancel the synthesis gracefully: the engine
	// aborts at its next checkpoint and the final progress snapshot below
	// still reports the phase reached, the best phi proven and the partial
	// work counters. A second Ctrl-C kills the process the usual way
	// (signal.NotifyContext restores the default handler once the context is
	// done).
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignals()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var (
		totalRuns int
		totalLUTs int
		totalWall time.Duration
		// Work-avoidance and memory aggregates across every file and -repeat
		// run: sweep visit/skip sums, worklist and arena high-water marks, and
		// the engines' arena-pool checkout traffic.
		totalVisits   int
		totalSkips    int
		peakWorklist  int
		peakArena     int
		totalReuses   int
		totalCreates  int
		totalDiscards int
	)
	for _, name := range files {
		var in io.Reader = os.Stdin
		if name != "-" {
			f, err := os.Open(name)
			if err != nil {
				fatal(err)
			}
			in = f
		}
		c, err := turbosyn.ReadBLIF(in)
		if cl, ok := in.(io.Closer); ok {
			cl.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}

		// One reusable engine per circuit-option pair: analysis, caches and
		// arenas are built once and every -repeat run checks out of them.
		eng, err := turbosyn.NewEngine(c, opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		var res *turbosyn.Result
		var fileVisits, fileSkips, fileWorklist, fileArena int
		start := time.Now()
		for r := 0; r < *repeat; r++ {
			res, err = eng.SynthesizeContext(ctx)
			if err == nil {
				fileVisits += res.Stats.SweepNodeVisits
				fileSkips += res.Stats.DirtySkips
				if res.Stats.WorklistPeak > fileWorklist {
					fileWorklist = res.Stats.WorklistPeak
				}
				if res.Stats.ArenaPeakBytes > fileArena {
					fileArena = res.Stats.ArenaPeakBytes
				}
			}
			if err != nil {
				eng.Close()
				writeTrace()
				var ce *turbosyn.CancelError
				if errors.As(err, &ce) {
					// The final Done snapshot is delivered before the run
					// returns, so this is its complete partial-progress record.
					s := met.Latest()
					fmt.Fprintf(os.Stderr,
						"turbosyn: %s: aborted during %s after %v (%v): best phi so far %s, %d iterations, %d/%d probes, %d degradations\n",
						c.Name, s.Phase, s.Elapsed.Round(time.Millisecond), ce.Err,
						phiString(s.BestPhi), s.Iterations, s.ProbesFinished, s.ProbesLaunched, s.Degradations)
					os.Exit(1)
				}
				fatal(fmt.Errorf("%s: %w", c.Name, err))
			}
		}
		elapsed := time.Since(start)
		pool := eng.PoolStats()
		eng.Close()
		totalRuns += *repeat
		totalLUTs += res.LUTs
		totalWall += elapsed
		totalVisits += fileVisits
		totalSkips += fileSkips
		if fileWorklist > peakWorklist {
			peakWorklist = fileWorklist
		}
		if fileArena > peakArena {
			peakArena = fileArena
		}
		totalReuses += pool.Reuses
		totalCreates += pool.Creates
		totalDiscards += pool.Discards

		perRun := ""
		if *repeat > 1 {
			perRun = fmt.Sprintf(" (%d runs, %v/run)", *repeat, (elapsed / time.Duration(*repeat)).Round(time.Millisecond))
		}
		fmt.Fprintf(os.Stderr,
			"%s: %v phi=%d luts=%d latency=%v wall=%v%s (in: %d gates, %d FFs)\n",
			c.Name, res.Algorithm, res.Phi, res.LUTs, res.Latency,
			elapsed.Round(time.Millisecond), perRun, c.NumGates(), c.NumFFs())
		fmt.Fprintf(os.Stderr,
			"%s: sweeps: %d visits, %d skips (%s avoided), worklist peak %d, arena peak %s\n",
			c.Name, fileVisits, fileSkips, pctAvoided(fileVisits, fileSkips),
			fileWorklist, byteString(fileArena))
		fmt.Fprintf(os.Stderr,
			"%s: arena pool: %d reuses, %d creates, %d discards, %d parked (%s retained)\n",
			c.Name, pool.Reuses, pool.Creates, pool.Discards,
			pool.Free, byteString(pool.FreeBytes))
		if *cacheDir != "" {
			fmt.Fprintf(os.Stderr,
				"%s: decomp cache: %d/%d hits persisted, %d via NPN, %d roth-karp runs\n",
				c.Name, res.Stats.CachePersistedHits, res.Stats.CacheShardHits,
				res.Stats.CacheNPNHits, res.Stats.RothKarpCalls)
		}

		target := res.Realized
		if *raw || target == nil {
			target = res.Mapped
		}
		var w io.Writer = os.Stdout
		if *out != "" {
			f, err := os.Create(*out)
			if err != nil {
				fatal(err)
			}
			if err := turbosyn.WriteBLIF(f, target); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
		} else if err := turbosyn.WriteBLIF(w, target); err != nil {
			fatal(err)
		}
	}
	writeTrace()
	if len(files) > 1 || *repeat > 1 {
		fmt.Fprintf(os.Stderr, "total: %d circuits, %d runs, luts=%d, wall=%v (%v/run)\n",
			len(files), totalRuns, totalLUTs, totalWall.Round(time.Millisecond),
			(totalWall / time.Duration(totalRuns)).Round(time.Millisecond))
		fmt.Fprintf(os.Stderr,
			"total: sweeps: %d visits, %d skips (%s avoided), worklist peak %d, arena peak %s, pool: %d reuses, %d creates, %d discards\n",
			totalVisits, totalSkips, pctAvoided(totalVisits, totalSkips),
			peakWorklist, byteString(peakArena), totalReuses, totalCreates, totalDiscards)
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC() // settle the heap so the profile shows retained allocation
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func phiString(phi int) string {
	if phi < 0 {
		return "none"
	}
	return fmt.Sprintf("%d", phi)
}

// pctAvoided renders the share of sweep work the dirty-set worklist elided.
func pctAvoided(visits, skips int) string {
	if total := visits + skips; total > 0 {
		return fmt.Sprintf("%d%%", skips*100/total)
	}
	return "0%"
}

// byteString renders a byte count with a binary unit.
func byteString(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1f KiB", float64(b)/(1<<10))
	}
	return fmt.Sprintf("%d B", b)
}

// checkRanges rejects numeric flag values no run can honour, before any
// work starts (locally or on a server).
func checkRanges(repeat int, timeout time.Duration) error {
	if repeat < 1 {
		return fmt.Errorf("-repeat %d: must be at least 1", repeat)
	}
	if timeout < 0 {
		return fmt.Errorf("-timeout %v: must not be negative (0 = no limit)", timeout)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "turbosyn:", err)
	os.Exit(1)
}
