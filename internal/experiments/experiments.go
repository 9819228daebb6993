// Package experiments regenerates the paper's evaluation tables on the
// synthetic suite. Each Table* function prints one deliverable; the ids
// match the experiment index in DESIGN.md and the recorded outputs live in
// EXPERIMENTS.md.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"turbosyn"
	"turbosyn/internal/bench"
	"turbosyn/internal/core"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
)

// Config parameterizes a run.
type Config struct {
	K     int
	Quick bool // reduced workloads for smoke tests
	Out   io.Writer
}

// quickGateCap/quickFFCap bound circuit size in quick mode. They keep one
// non-trivial representative per class (bbsse and keyb for the FSMs, s420
// for the accumulators) while keeping the smoke test inside CI's plain
// `go test ./...` budget; register-heavy s838 alone costs more TurboSYN
// time than the rest of the quick suite combined.
const (
	quickGateCap = 500
	quickFFCap   = 16
)

func quickSkip(c *netlist.Circuit) bool {
	return c.NumGates() > quickGateCap || c.NumFFs() > quickFFCap
}

// caseResult bundles the three algorithms' outcomes on one circuit.
type caseResult struct {
	bench.Case
	fsns, tm, ts             *turbosyn.Result
	fsnsWall, tmWall, tsWall time.Duration
}

var (
	suiteMu    sync.Mutex
	suiteCache = map[int][]caseResult{}
)

// synthesize runs the public flow on c without the realization step (no
// table reads the retimed network) and times it.
func synthesize(c *netlist.Circuit, o turbosyn.Options) (*turbosyn.Result, time.Duration, error) {
	o.NoRealize = true
	start := time.Now()
	res, err := turbosyn.Synthesize(c, o)
	if err != nil {
		return nil, 0, fmt.Errorf("%s/%v: %w", c.Name, o.Algorithm, err)
	}
	return res, time.Since(start), nil
}

// runSuite maps and packs every suite circuit with the three algorithms
// (cached per K).
func runSuite(cfg Config) ([]caseResult, error) {
	suiteMu.Lock()
	defer suiteMu.Unlock()
	if rs, ok := suiteCache[cfg.K]; ok {
		return rs, nil
	}
	var out []caseResult
	for _, cs := range bench.Suite() {
		if cfg.Quick && quickSkip(cs.Circuit) {
			continue
		}
		r := caseResult{Case: cs}
		var errFS, errTM, errTS error
		r.fsns, r.fsnsWall, errFS = synthesize(cs.Circuit, turbosyn.Options{K: cfg.K, Algorithm: turbosyn.FlowSYNS})
		r.tm, r.tmWall, errTM = synthesize(cs.Circuit, turbosyn.Options{K: cfg.K, Algorithm: turbosyn.TurboMap})
		r.ts, r.tsWall, errTS = synthesize(cs.Circuit, turbosyn.Options{K: cfg.K, Algorithm: turbosyn.TurboSYN})
		if err := errors.Join(errFS, errTM, errTS); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	suiteCache[cfg.K] = out
	return out, nil
}

// Table1 reproduces the paper's Table 1: minimum clock period (MDR ratio)
// under retiming + pipelining and wall-clock time for FlowSYN-s, TurboMap
// and TurboSYN. The paper reports period reductions of 1.72x (vs FlowSYN-s)
// and 1.96x (vs TurboMap).
func Table1(cfg Config) error {
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Table 1: clock period (MDR ratio) under retiming+pipelining, K=%d\n", cfg.K)
	t := newTable("circuit", "class", "gate", "ff",
		"fsns.phi", "fsns.wall", "tm.phi", "tm.wall", "ts.phi", "ts.wall")
	var fsnsPhi, tmPhi, tsPhi []float64
	for _, r := range rs {
		// TurboSYN's search space contains TurboMap's (it seeds from
		// TurboMap's optimum and only adds resynthesis moves), so losing a
		// row to TurboMap is a bug, not a data point. FlowSYN-s maps acyclic
		// islands with the same resynthesis, so TurboSYN, which resynthesizes
		// across registers as well, losing a suite row to it is a regression
		// of the reproduction and fails the table too.
		if r.ts.Phi > r.tm.Phi {
			return fmt.Errorf("%s: TurboSYN phi %d worse than TurboMap phi %d",
				r.Name, r.ts.Phi, r.tm.Phi)
		}
		if r.ts.Phi > r.fsns.Phi {
			return fmt.Errorf("%s: TurboSYN phi %d worse than FlowSYN-s phi %d",
				r.Name, r.ts.Phi, r.fsns.Phi)
		}
		t.AddRow(r.Name, r.Class, r.Circuit.NumGates(), r.Circuit.NumFFs(),
			r.fsns.Phi, wall(r.fsnsWall), r.tm.Phi, wall(r.tmWall), r.ts.Phi, wall(r.tsWall))
		fsnsPhi = append(fsnsPhi, float64(r.fsns.Phi))
		tmPhi = append(tmPhi, float64(r.tm.Phi))
		tsPhi = append(tsPhi, float64(r.ts.Phi))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out,
		"geomean period ratio: FlowSYN-s/TurboSYN = %.2f, TurboMap/TurboSYN = %.2f\n",
		ratioSummary(fsnsPhi, tsPhi), ratioSummary(tmPhi, tsPhi))
	fmt.Fprintf(cfg.Out, "paper reports:        FlowSYN-s/TurboSYN = 1.72, TurboMap/TurboSYN = 1.96\n")
	return nil
}

// Table2 reproduces the paper's area comparison: LUT counts after packing.
// The paper observes that TurboSYN loses area to both baselines because of
// single-output functional decomposition.
func Table2(cfg Config) error {
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(cfg.Out, "Table 2: LUT counts after packing, K=%d\n", cfg.K)
	t := newTable("circuit", "fsns.luts", "tm.luts", "ts.luts")
	var fsns, tm, ts []float64
	for _, r := range rs {
		t.AddRow(r.Name, r.fsns.LUTs, r.tm.LUTs, r.ts.LUTs)
		fsns = append(fsns, float64(r.fsns.LUTs))
		tm = append(tm, float64(r.tm.LUTs))
		ts = append(ts, float64(r.ts.LUTs))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out,
		"geomean LUT ratio: TurboSYN/FlowSYN-s = %.2f, TurboSYN/TurboMap = %.2f (paper: TurboSYN loses area)\n",
		ratioSummary(ts, fsns), ratioSummary(ts, tm))
	return nil
}

// An n^2 reference run of TablePLD is stopped after n2Speedup times the
// PLD run's wall time, but never before n2MinWall, on top of its iteration
// cap. On the largest rows the cap alone let one run take 11 minutes to
// prove a factor the table only reports as a lower bound; the deadline
// still proves 20x, twice the low end of the paper's range, and every row
// that finished uncapped before it (the slowest in 105 s) still does.
const (
	n2Speedup = 20
	n2MinWall = 2 * time.Minute
)

// TablePLD reproduces the 10-50x positive-loop-detection speedup: deciding
// an infeasible target ratio with the PLD suite versus the conservative n^2
// stopping rule of SeqMapII. The n^2 runs are capped by iterations and by
// wall time (entries marked '>').
func TablePLD(cfg Config) error {
	fmt.Fprintf(cfg.Out, "PLD ablation: infeasible-target probes, K=%d\n", cfg.K)
	t := newTable("circuit", "target", "iters.pld", "iters.n2",
		"wall.pld", "wall.n2", "speedup")
	rs, err := runSuite(cfg)
	if err != nil {
		return err
	}
	var speedups []float64
	for _, r := range rs {
		target := r.tm.Phi - 1
		if target < 1 {
			continue
		}
		// TurboMap's label computation; the n^2 run needs IterBudget, which
		// the public options do not offer, so both probes run on one core
		// engine over the circuit.
		on := core.Options{K: cfg.K, PLD: true, Pipelined: true}
		e, err := core.NewEngine(r.Circuit, on)
		if err != nil {
			return err
		}
		statsOn, dOn, err := infeasibleProbe(context.Background(), e, target, on)
		// The n^2 rule is given up to 100x the PLD iteration count (capped
		// rows report lower bounds '>'); anything more only burns hours to
		// prove a larger factor.
		budget := min(100*statsOn.Iterations, 200000)
		if cfg.Quick {
			// The smoke test only needs the ablation exercised, not a tight
			// lower bound on the speedup factor.
			budget = min(budget, 2000)
		}
		off := core.Options{K: cfg.K, Pipelined: true, IterBudget: budget} // on, minus PLD
		var statsOff core.Stats
		var dOff time.Duration
		capped := ""
		if err == nil {
			ctx, cancel := context.WithTimeout(context.Background(), max(n2MinWall, n2Speedup*dOn))
			statsOff, dOff, err = infeasibleProbe(ctx, e, target, off)
			cancel()
			if errors.Is(err, context.DeadlineExceeded) {
				capped, err = ">", nil // a lower bound, like the iteration cap
			}
		}
		e.Close()
		if err != nil {
			return fmt.Errorf("%s: %v", r.Name, err)
		}
		if statsOff.Iterations >= budget {
			capped = ">"
		}
		sp := float64(dOff) / float64(dOn)
		speedups = append(speedups, sp)
		t.AddRow(r.Name, target, statsOn.Iterations,
			fmt.Sprintf("%s%d", capped, statsOff.Iterations),
			wall(dOn), capped+wall(dOff), fmt.Sprintf("%s%.1fx", capped, sp))
	}
	t.Render(cfg.Out)
	fmt.Fprintf(cfg.Out, "geomean speedup >= %.1fx (paper reports 10-50x)\n",
		geoMean(speedups))
	return nil
}

// infeasibleProbe decides phi on e under o, which must come out infeasible,
// and times the probe. A probe stopped by ctx returns its partial Stats
// with the context's error.
func infeasibleProbe(ctx context.Context, e *core.Engine, phi int, o core.Options) (core.Stats, time.Duration, error) {
	start := time.Now()
	ok, st, err := e.FeasibleContext(ctx, phi, o)
	d := time.Since(start)
	if err == nil && ok {
		err = fmt.Errorf("target %d unexpectedly feasible", phi)
	}
	return st, d, err
}

// TableScale reproduces the scalability claim: TurboSYN handles circuits
// of over 10^4 gates and 10^3 flipflops "in reasonable time".
func TableScale(cfg Config) error {
	fmt.Fprintf(cfg.Out, "Scale: full TurboSYN minimization, K=%d\n", cfg.K)
	t := newTable("circuit", "gates", "ffs", "phi", "luts", "wall")
	for _, c := range scaleCases(cfg) {
		res, d, err := synthesize(c, turbosyn.Options{K: cfg.K, NoPack: true})
		if err != nil {
			return err
		}
		t.AddRow(c.Name, c.NumGates(), c.NumFFs(), res.Phi, res.LUTs, wall(d))
	}
	t.Render(cfg.Out)
	return nil
}

// TableK sweeps the LUT size (the paper fixes K=5; this is the extension
// ablation listed in DESIGN.md) and the LowDepth expansion knob, which
// governs only the structural checks' expansion: resynthesis cuts always
// come from the strict candidate frontier.
func TableK(cfg Config) error {
	subset := map[string]bool{"bbara": true, "keyb": true, "s420": true, "s838": true}
	fmt.Fprintln(cfg.Out, "K sweep: TurboSYN period/LUTs for K = 3..6")
	t := newTable("circuit", "k3.phi", "k3.luts", "k4.phi", "k4.luts",
		"k5.phi", "k5.luts", "k6.phi", "k6.luts")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		row := []interface{}{cs.Name}
		for k := 3; k <= 6; k++ {
			res, _, err := synthesize(cs.Circuit, turbosyn.Options{K: k, NoPack: true})
			if err != nil {
				return fmt.Errorf("k=%d: %v", k, err)
			}
			row = append(row, res.Phi, res.LUTs)
		}
		t.AddRow(row...)
	}
	t.Render(cfg.Out)

	fmt.Fprintf(cfg.Out, "\nLowDepth ablation (structural checks' expansion through cut candidates;"+
		" resynthesis cuts always use the frontier), K=%d\n", cfg.K)
	t2 := newTable("circuit", "frontier.phi", "frontier.luts", "low3.phi", "low3.luts",
		"low6.phi", "low6.luts")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		// LowDepth is not a public option: the three runs share one core
		// engine and vary it per call.
		o := core.DefaultOptions()
		o.K = cfg.K
		e, err := core.NewEngine(cs.Circuit, o)
		if err != nil {
			return err
		}
		row := []interface{}{cs.Name}
		for _, low := range []int{-1, 3, 6} { // -1 = strict TurboMap frontier
			o.LowDepth = low
			var res *core.Result
			if res, err = e.MinimizeContext(context.Background(), o); err != nil {
				err = fmt.Errorf("%s low=%d: %v", cs.Name, low, err)
				break
			}
			row = append(row, res.Phi, res.LUTs)
		}
		e.Close()
		if err != nil {
			return err
		}
		t2.AddRow(row...)
	}
	t2.Render(cfg.Out)
	return nil
}

func scaleCases(cfg Config) []*netlist.Circuit {
	sizes := []struct {
		name      string
		stateBits int
		cubes     int
	}{
		{"fsm1k", 24, 8},   // ~1.3k gates
		{"fsm2k", 48, 8},   // ~2.6k gates
		{"fsm5k", 120, 8},  // ~5.5k gates
		{"fsm11k", 240, 8}, // ~11k gates
		{"fsm22k", 480, 8}, // ~22k gates, ~0.5k registers
		{"fsm44k", 960, 8}, // ~44k gates, ~1k registers: the paper's 10^4/10^3 claim
	}
	if cfg.Quick {
		// One smaller instance of the same generator; the growth curve is
		// the full run's business.
		sizes = []struct {
			name      string
			stateBits int
			cubes     int
		}{{"fsm0.8k", 10, 8}}
	}
	var out []*netlist.Circuit
	for _, sz := range sizes {
		out = append(out, bench.ScaleFSM(sz.name, sz.stateBits, sz.cubes))
	}
	return out
}

// wall formats a wall-clock duration for a table cell.
func wall(d time.Duration) string {
	switch {
	case d < time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/1e6)
	case d < time.Second:
		return fmt.Sprintf("%dms", d.Milliseconds())
	}
	return fmt.Sprintf("%.1fs", d.Seconds())
}

// TablePeriod is the clock-period-objective companion experiment (the
// TurboMap lineage): minimum period by gate-level retiming alone versus
// K-LUT mapping with retiming (no pipelining in either). Mapping compresses
// the combinational paths, so it must never lose.
func TablePeriod(cfg Config) error {
	subset := map[string]bool{
		"bbara": true, "bbsse": true, "keyb": true,
		"s420": true, "s838": true, "s1423": true,
	}
	fmt.Fprintf(cfg.Out, "Clock-period objective (no pipelining), K=%d\n", cfg.K)
	t := newTable("circuit", "period", "retimed", "mapped+retimed", "wall")
	for _, cs := range bench.Suite() {
		if !subset[cs.Name] {
			continue
		}
		p0 := retime.Period(cs.Circuit)
		pr, _ := retime.MinPeriod(cs.Circuit)
		// No LUT column: the wall time is the mapping's alone.
		res, d, err := synthesize(cs.Circuit, turbosyn.Options{
			K: cfg.K, Algorithm: turbosyn.TurboMap, Objective: turbosyn.MinPeriod, NoPack: true,
		})
		if err != nil {
			return err
		}
		if res.Phi > pr {
			return fmt.Errorf("%s: mapping (%d) lost to plain retiming (%d)", cs.Name, res.Phi, pr)
		}
		t.AddRow(cs.Name, p0, pr, res.Phi, wall(d))
	}
	t.Render(cfg.Out)
	return nil
}
