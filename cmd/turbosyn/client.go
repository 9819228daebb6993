package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"time"

	"turbosyn/internal/server"
)

// localOnlyFlags shape a local synthesis run and have no counterpart in a
// daemon job; clientOnlyFlags only travel with a -server submission.
var (
	localOnlyFlags  = []string{"j", "repeat", "decomp-cache", "cpuprofile", "memprofile", "trace", "v", "log-json", "metrics-addr"}
	clientOnlyFlags = []string{"tenant", "priority"}
)

// checkModeFlags rejects the explicitly set flags (visit is flag.Visit or a
// FlagSet's Visit) that the selected mode would otherwise silently ignore,
// naming each one.
func checkModeFlags(visit func(func(*flag.Flag)), client bool) error {
	wrong, why := clientOnlyFlags, "supported only with -server"
	if client {
		wrong, why = localOnlyFlags, "not supported with -server (local synthesis only)"
	}
	var bad []string
	visit(func(f *flag.Flag) {
		if slices.Contains(wrong, f.Name) {
			bad = append(bad, "-"+f.Name)
		}
	})
	if len(bad) == 0 {
		return nil
	}
	return fmt.Errorf("%s: %s", strings.Join(bad, ", "), why)
}

// clientConfig carries the -server client-mode settings lowered from the
// CLI flags.
type clientConfig struct {
	base     string
	tenant   string
	priority int
	files    []string
	out      string
	timeout  time.Duration

	k         int
	alg       string
	objective string
	noPack    bool
	mapped    bool
	strict    bool
	rkBudget  int
}

// runClient is -server mode: each input becomes a daemon job (same option
// surface as a local run), submitted with the retrying client, and the
// returned netlists stream to -o/stdout exactly like local synthesis. Shed
// load (429/503) is retried with jittered exponential backoff inside
// Client.Submit; a failed job surfaces its typed error and exits non-zero.
func runClient(cfg clientConfig) {
	ctx, cancelSignals := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancelSignals()

	cl := server.NewClient(cfg.base, cfg.tenant)
	opts := server.JobOptions{
		K: cfg.k, Algorithm: cfg.alg, Objective: cfg.objective,
		NoPack: cfg.noPack, Mapped: cfg.mapped, Strict: cfg.strict,
		RothKarpBudget: cfg.rkBudget,
	}
	for _, name := range cfg.files {
		var in io.Reader = os.Stdin
		if name != "-" {
			f, err := os.Open(name)
			if err != nil {
				fatal(err)
			}
			in = f
		}
		blif, err := io.ReadAll(in)
		if c, ok := in.(io.Closer); ok {
			c.Close()
		}
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		spec := server.JobSpec{
			Tenant:    cfg.tenant,
			Priority:  cfg.priority,
			TimeoutMS: int(cfg.timeout / time.Millisecond),
			Options:   opts,
			BLIF:      string(blif),
		}
		start := time.Now()
		st, netlist, err := cl.Run(ctx, spec)
		if err != nil {
			if st != nil && st.Error != nil {
				fmt.Fprintf(os.Stderr, "turbosyn: %s: job %s %s (%s, retryable=%v): %s\n",
					name, st.ID, st.State, st.Error.Kind, st.Error.Retryable, st.Error.Message)
				os.Exit(1)
			}
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		if r := st.Result; r != nil {
			fmt.Fprintf(os.Stderr, "%s: job %s phi=%d luts=%d latency=%v server=%vms wall=%v\n",
				r.Circuit, st.ID, r.Phi, r.LUTs, r.Latency, r.RunMS,
				time.Since(start).Round(time.Millisecond))
		}
		if cfg.out != "" {
			if err := os.WriteFile(cfg.out, netlist, 0o644); err != nil {
				fatal(err)
			}
		} else if _, err := os.Stdout.Write(netlist); err != nil {
			fatal(err)
		}
	}
}
