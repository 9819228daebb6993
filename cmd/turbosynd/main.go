// Command turbosynd is the multi-tenant synthesis daemon: an HTTP/JSON
// service that accepts synthesis jobs (inline BLIF or a generator spec),
// runs them on a bounded worker fleet with tenant-fair scheduling and
// admission control, journals every accepted job for crash recovery, and
// drains gracefully on SIGTERM/SIGINT.
//
// Usage:
//
//	turbosynd -addr :8787 -journal-dir /var/lib/turbosynd [-fleet N] [flags]
//
// API (see DESIGN.md §12 and the README quickstart):
//
//	POST /jobs               submit a job           -> 202 {"id": ...}
//	GET  /jobs/{id}          status                 -> JobStatus JSON
//	GET  /jobs/{id}/result   finished netlist       -> BLIF text
//	GET  /jobs/{id}/progress live progress          -> push NDJSON stream
//	GET  /jobs/{id}/trace    stitched Perfetto trace (terminal jobs)
//	GET  /healthz /statz /metrics                   health, stats, Prometheus
//
// With -debug-addr set, a second listener serves net/http/pprof and expvar
// (/debug/pprof/, /debug/vars) — bind it to localhost or a management
// network, never the tenant-facing address.
//
// Over-capacity, over-quota, over-rate and over-memory submissions answer
// 429 with a Retry-After; a draining daemon answers 503. Accepted jobs
// survive a crash: on restart they are re-run from the journal or reported
// failed — never silently lost.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"turbosyn/internal/jobqueue"
	"turbosyn/internal/obs"
	"turbosyn/internal/server"
)

func main() {
	var (
		addr       = flag.String("addr", ":8787", "HTTP listen address")
		fleet      = flag.Int("fleet", 0, "concurrent jobs (0 = all CPUs)")
		workersPer = flag.Int("job-workers", 1, "engine workers per job (fleet provides the parallelism)")
		queueCap   = flag.Int("queue-cap", 256, "max queued jobs across all tenants")
		perTenant  = flag.Int("tenant-quota", 0, "max queued+running jobs per tenant (0 = unlimited)")
		ratePerSec = flag.Float64("tenant-rate", 0, "per-tenant admission rate, jobs/sec (0 = unlimited)")
		rateBurst  = flag.Int("tenant-burst", 0, "per-tenant admission burst (default: ceil of -tenant-rate)")
		memBudget  = flag.Int64("mem-budget", 0, "total arena-byte headroom across admitted jobs (0 = unlimited)")
		perJobMem  = flag.Int("job-arena", 64<<20, "arena-byte reservation and budget per job")
		defTimeout = flag.Duration("job-timeout", time.Minute, "default per-job timeout")
		maxTimeout = flag.Duration("max-job-timeout", 10*time.Minute, "cap on client-requested timeouts")
		drainGrace = flag.Duration("drain-grace", 30*time.Second, "graceful-drain deadline on SIGTERM; in-flight jobs still running after it are cancelled (retryably)")
		journalDir = flag.String("journal-dir", "", "crash-safe job journal directory (empty: jobs do not survive restarts)")
		cacheDir   = flag.String("decomp-cache", "", "shared persistent decomposition cache directory")
		traceCap   = flag.Int("trace-ring", 0, "per-ring event capacity of each job's stitched trace (0 = 1024, -1 disables /jobs/{id}/trace)")
		debugAddr  = flag.String("debug-addr", "", "opt-in debug listen address serving net/http/pprof and expvar (bind to localhost or a management network)")
		logJSON    = flag.Bool("log-json", false, "structured logs as JSON instead of text")
		verbose    = flag.Bool("v", false, "debug-level logging")
	)
	flag.Parse()

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	hopts := &slog.HandlerOptions{Level: level}
	var logger *slog.Logger
	if *logJSON {
		logger = slog.New(slog.NewJSONHandler(os.Stderr, hopts))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, hopts))
	}

	// Catch SIGTERM/SIGINT before start-up: journal recovery in server.New
	// can take a while, and a signal that arrives during it must still end
	// in a drain (below) rather than the default kill.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := server.New(server.Config{
		Fleet:         *fleet,
		WorkersPerJob: *workersPer,
		Queue: jobqueue.Config{
			Capacity:   *queueCap,
			PerTenant:  *perTenant,
			RatePerSec: *ratePerSec,
			Burst:      *rateBurst,
		},
		MemBudget:      *memBudget,
		PerJobArena:    *perJobMem,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		JournalDir:     *journalDir,
		CacheDir:       *cacheDir,
		TraceRingCap:   *traceCap,
		Logger:         logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbosynd:", err)
		os.Exit(1)
	}
	s.Start()

	srv := server.NewHTTPServer(*addr, s.Handler())
	bound, shutdownHTTP, err := server.ListenAndServeBackground(srv, func(err error) {
		logger.Error("http serve failed", "err", err.Error())
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "turbosynd:", err)
		os.Exit(1)
	}
	logger.Info("turbosynd serving", "addr", bound.String(), "journal", *journalDir)

	// Opt-in debug mux: pprof + expvar, on its own listener so profiles and
	// process vars never ride the tenant-facing address. The daemon's Stats
	// snapshot is published idempotently under "turbosynd".
	if *debugAddr != "" {
		unpublish := obs.PublishExpvar("turbosynd", func() any { return s.Stats() })
		defer unpublish()
		dsrv := server.NewHTTPServer(*debugAddr, server.DebugHandler())
		dbound, shutdownDebug, err := server.ListenAndServeBackground(dsrv, func(err error) {
			logger.Error("debug serve failed", "err", err.Error())
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "turbosynd:", err)
			os.Exit(1)
		}
		defer func() {
			dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
			shutdownDebug(dctx)
			dcancel()
		}()
		logger.Info("debug mux serving", "addr", dbound.String())
	}

	// SIGTERM/SIGINT: stop admitting (503), finish what is queued and
	// running within the drain grace, shed or cancel the rest — every
	// accepted job reaches a terminal, journaled state before exit.
	<-sigCtx.Done()
	logger.Info("signal received; draining", "grace", (*drainGrace).String())

	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	defer cancel()
	// Stop the listener first so clients see connection refused (and retry
	// elsewhere) rather than queueing requests into a dying process.
	httpCtx, hcancel := context.WithTimeout(context.Background(), 5*time.Second)
	shutdownHTTP(httpCtx)
	hcancel()
	if err := s.Drain(drainCtx); err != nil {
		logger.Error("drain incomplete", "err", err.Error())
		os.Exit(1)
	}
	st := s.Stats()
	logger.Info("drained clean", "done", st.Done, "failed", st.Failed, "shed", st.Shed)
}
