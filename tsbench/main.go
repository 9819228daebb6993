// Command tsbench is the repository benchmark. It generates its inputs from
// a seed, runs one workload against the turbosyn CLI, the turbosynd daemon
// or (traced runs) the public library, checks every output, and prints each
// metric with its unit. The last line of standard output is a JSON object
// {"correct", "attempted", "failed", "metrics"}. Run it through run.sh,
// which builds the binaries first:
//
//	bash tsbench/run.sh --workload giant_scc --seed 1 --seconds 40 --trace 0
//
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// README.md describes the workloads and metrics.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string // repository checkout
	bin      string // directory holding turbosyn and turbosynd
	work     string // scratch directory for this run
}

// workloads maps each workload to its untraced and traced runs.
var workloads = map[string]struct {
	run, traced func(context.Context, config, *report) error
}{
	"giant_scc":  {runEngine(giantCircuit), traceEngine(giantCircuit)},
	"daemon_mix": {runDaemonMix, traceDaemonMix},
}

// metric is one metric BENCHMARK.json defines.
type metric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// metricsOf reads the metrics a run reports, with their units, from
// BENCHMARK.json at the repository root: the end-to-end ones, or the
// per-layer ones for a traced run.
func metricsOf(root string, traced bool) ([]metric, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var def struct {
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	names := def.EndToEnd
	if traced {
		names = def.PerLayer
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json lists no metrics for this run")
	}
	return names, nil
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload: giant_scc | daemon_mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed (1 is the default; any other value is a held-out seed)")
	flag.Float64Var(&cfg.seconds, "seconds", 40, "measured time per run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	flag.StringVar(&cfg.root, "root", ".", "repository checkout")
	flag.StringVar(&cfg.bin, "bin", ".bench_build/bin", "directory holding the turbosyn and turbosynd binaries")
	flag.StringVar(&cfg.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	cfg.trace = trace == 1
	w, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "tsbench: need --workload giant_scc|daemon_mix, --trace 0|1 and --seconds > 0")
		os.Exit(2)
	}
	names, err := metricsOf(cfg.root, cfg.trace)
	if err != nil {
		fatal(err)
	}
	dir, err := os.MkdirTemp(mustMkdir(cfg.work), cfg.workload+"-")
	if err != nil {
		fatal(err)
	}
	cfg.work = dir

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	rep := newReport(names)
	fmt.Println("# context " + contextRecord(cfg))
	run := w.run
	if cfg.trace {
		run = w.traced
	}
	steal0, total0, ok0 := hostCPU()
	err = run(ctx, cfg, rep)
	stop()
	if steal1, total1, ok1 := hostCPU(); ok0 && ok1 && total1 > total0 {
		// The share of the machine's CPU time the hypervisor gave to other
		// guests during the run: it inflates wall times, not CPU times.
		fmt.Printf("# host {\"steal_share\": %.4f}\n", (steal1-steal0)/(total1-total0))
	}
	os.RemoveAll(dir)
	if err != nil {
		fatal(err)
	}
	os.Exit(rep.finish())
}

// report accumulates one run's metrics and its output-check outcome.
type report struct {
	names     []metric // what the run must report
	metrics   map[string]float64
	attempted int
	failed    int
}

func newReport(names []metric) *report {
	return &report{names: names, metrics: map[string]float64{}}
}

func (r *report) set(name string, v float64) { r.metrics[name] = v }

// failf counts one failed output and says why on standard error.
func (r *report) failf(format string, args ...any) {
	r.failed++
	fmt.Fprintf(os.Stderr, "tsbench: FAILED: "+format+"\n", args...)
}

// finish prints every metric the run must report, the error rate and the
// result line, and returns the exit code: 0 only when every output checked
// correct.
func (r *report) finish() int {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]value{}
	for _, m := range r.names {
		v, ok := r.metrics[m.Name]
		if !ok {
			r.failf("metric %s was not measured", m.Name)
		}
		if math.IsInf(v, 0) || math.IsNaN(v) {
			// A refused or failed job has no latency; it misses every limit.
			v = math.MaxFloat64
		}
		out[m.Name] = value{v, m.Unit}
		fmt.Fprintf(os.Stderr, "%-34s %14.4f %s\n", m.Name, v, m.Unit)
	}
	if r.attempted < 1 {
		r.failf("no output was attempted")
		r.attempted = 1
	}
	fmt.Fprintf(os.Stderr, "%-34s %14.4f ratio (%d of %d)\n", "error_rate",
		float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, out})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if r.failed > 0 {
		return 1
	}
	return 0
}

// contextRecord describes the machine, toolchain and code a result came
// from, as one JSON object.
func contextRecord(cfg config) string {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	rec, _ := json.Marshal(map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.trace,
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commitOf(cfg.root),
	})
	return string(rec)
}

// commitOf names the code under test: the git commit when the checkout is a
// repository, otherwise a hash of its Go sources and module files.
func commitOf(root string) string {
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, f)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// hostCPU returns the machine's cumulative steal time and total CPU time
// from /proc/stat, in clock ticks; ok is false where the kernel does not
// report them.
func hostCPU() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	// cpu user nice system idle iowait irq softirq steal [guest ...]; guest
	// time is already counted in user.
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:9] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

func mustMkdir(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	return dir
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tsbench:", err)
	os.Exit(2)
}
