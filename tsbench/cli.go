package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"syscall"
	"time"

	"turbosyn"
	"turbosyn/internal/netlist"
)

// A run repeats its set-up for at least setupBudget of wall time and at
// least setupMinRepeats times; setup_s is the median, so neither a slow
// repetition nor a short burst of load on the machine moves it.
const (
	setupBudget     = time.Second
	setupMinRepeats = 15
)

// setupDone reports whether a set-up repeated n times since start is done.
func setupDone(start time.Time, n int) bool {
	return n >= setupMinRepeats && time.Since(start) >= setupBudget
}

// writeInput generates a run's circuit and writes it as BLIF.
func writeInput(cfg config, gen func(int64) *netlist.Circuit) (*netlist.Circuit, string, error) {
	c := gen(cfg.seed)
	data, err := blifText(c)
	if err != nil {
		return nil, "", err
	}
	path := filepath.Join(cfg.work, c.Name+".blif")
	return c, path, os.WriteFile(path, data, 0o644)
}

// cliOptions are the library options equivalent to `turbosyn -j 0`.
var cliOptions = turbosyn.Options{Workers: 0}

// runEngine returns the untraced run of a CLI workload: `turbosyn -j 0` on
// the seeded circuit, at least twice and for about the run's seconds.
func runEngine(gen func(int64) *netlist.Circuit) func(context.Context, config, *report) error {
	return func(ctx context.Context, cfg config, rep *report) error {
		var heavy *netlist.Circuit
		var path string
		var setup []float64
		for start := time.Now(); !setupDone(start, len(setup)); {
			t := time.Now()
			var err error
			if heavy, path, err = writeInput(cfg, gen); err != nil {
				return err
			}
			setup = append(setup, time.Since(t).Seconds())
		}
		rep.set("setup_s", median(setup))

		t := time.Now()
		ref, err := buildReference(ctx, cfg.seed, heavy, cliOptions)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "verify_ms (reference, excluded from synth_s): %.1f\n", msSince(t))

		cli := filepath.Join(cfg.bin, "turbosyn")
		out := filepath.Join(cfg.work, "out.blif")
		var walls, cpus, rss []float64
		start := time.Now()
		for {
			pr, err := runCLI(ctx, cli, out, path, ref, rep)
			if err != nil {
				return err
			}
			walls, cpus, rss = append(walls, pr.wall), append(cpus, pr.cpu), append(rss, pr.rssMB)
			if len(walls) >= 2 && time.Since(start).Seconds()+mean(walls)/2 >= cfg.seconds {
				break
			}
		}
		rep.set("synth_s", median(walls))
		rep.set("cpu_s", median(cpus))
		rep.set("peak_rss_mb", median(rss))
		rep.set("phi_sum", float64(ref.phi))
		rep.set("lut_sum", float64(ref.luts))
		fmt.Fprintf(os.Stderr, "%s: %d passes, wall %v s, cpu %v s\n", heavy.Name, len(walls), walls, cpus)
		return nil
	}
}

// procRun is the resource use of one finished program process.
type procRun struct {
	wall, cpu float64 // seconds
	rssMB     float64 // peak resident set, MiB
	stderr    []byte
}

// runProc runs a program to completion and measures it.
func runProc(ctx context.Context, name string, args ...string) (procRun, error) {
	cmd := exec.CommandContext(ctx, name, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	t := time.Now()
	err := cmd.Run()
	pr := procRun{wall: time.Since(t).Seconds(), stderr: stderr.Bytes()}
	if cmd.ProcessState != nil {
		pr.cpu, pr.rssMB = usage(cmd.ProcessState)
	}
	if err != nil {
		return pr, fmt.Errorf("%s: %w: %s", filepath.Base(name), err, stderr.Bytes())
	}
	return pr, nil
}

// usage returns a finished process's user+sys CPU seconds and peak RSS.
func usage(ps *os.ProcessState) (cpu, rssMB float64) {
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0, 0
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9, float64(ru.Maxrss) / 1024 // Linux reports KiB
}

var summaryRE = regexp.MustCompile(`phi=(\d+) luts=(\d+)`)

// runCLI synthesizes one file with the CLI and compares what it wrote and
// reported to ref. A failed run or check counts in rep; only cancellation is
// returned.
func runCLI(ctx context.Context, cli, out, input string, ref *reference, rep *report) (procRun, error) {
	os.Remove(out)
	rep.attempted++
	pr, err := runProc(ctx, cli, "-j", "0", "-o", out, input)
	if ctx.Err() != nil {
		return pr, ctx.Err()
	}
	if err != nil {
		rep.failf("%v", err)
		return pr, nil
	}
	got, err := os.ReadFile(out)
	switch {
	case err != nil:
		rep.failf("%s: %v", input, err)
	case !bytes.Equal(got, ref.output):
		rep.failf("%s: CLI output differs from the checked library reference", input)
	default:
		m := summaryRE.FindSubmatch(pr.stderr)
		if m == nil || atoi(m[1]) != ref.phi || atoi(m[2]) != ref.luts {
			rep.failf("%s: CLI reports %q, reference phi=%d luts=%d", input, m, ref.phi, ref.luts)
		}
	}
	return pr, nil
}

func atoi(b []byte) int {
	n, err := strconv.Atoi(string(b))
	if err != nil {
		return -1
	}
	return n
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
