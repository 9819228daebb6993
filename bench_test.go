package turbosyn

// Benchmark harness: one testing.B benchmark per evaluation table/figure
// (see the experiment index in DESIGN.md). The benchmarks exercise the same
// code paths as cmd/experiments on the suite's smaller circuits so that
// `go test -bench=. -benchmem` finishes in minutes; the full tables are
// regenerated by `go run ./cmd/experiments`.

import (
	"context"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/core"
	"turbosyn/internal/mapper"
	"turbosyn/internal/netlist"
)

// benchCase returns the named suite circuit.
func benchCase(b *testing.B, name string) *netlist.Circuit {
	b.Helper()
	for _, cs := range bench.Suite() {
		if cs.Name == name {
			return cs.Circuit
		}
	}
	b.Fatalf("no suite case %q", name)
	return nil
}

// --- Table 1: clock period (MDR ratio) per algorithm ---

// benchmarkSynthesize runs Synthesize without realization, as the
// experiment tables do.
func benchmarkSynthesize(b *testing.B, c *Circuit, o Options) {
	o.NoRealize = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(c, o)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Phi), "phi")
		b.ReportMetric(float64(res.LUTs), "luts")
	}
}

func BenchmarkTable1TurboSYN_bbara(b *testing.B) {
	benchmarkSynthesize(b, benchCase(b, "bbara"), Options{})
}

func BenchmarkTable1TurboSYN_s420(b *testing.B) {
	benchmarkSynthesize(b, benchCase(b, "s420"), Options{})
}

func BenchmarkTable1TurboMap_bbara(b *testing.B) {
	benchmarkSynthesize(b, benchCase(b, "bbara"), Options{Algorithm: TurboMap})
}

func BenchmarkTable1TurboMap_s420(b *testing.B) {
	benchmarkSynthesize(b, benchCase(b, "s420"), Options{Algorithm: TurboMap})
}

func BenchmarkTable1FlowSYNS_bbara(b *testing.B) {
	benchmarkSynthesize(b, benchCase(b, "bbara"), Options{Algorithm: FlowSYNS})
}

// --- Table 2: area (LUT counts after packing) ---

func BenchmarkTable2Area_bbara(b *testing.B) {
	c := benchCase(b, "bbara")
	res, err := Synthesize(c, Options{NoPack: true, NoRealize: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		packed, _, err := mapper.Pack(res.Mapped, 5, res.OrigOf)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(packed.NumGates()), "luts")
	}
}

// --- F-PLD: positive loop detection speedup on infeasible probes ---

// benchmarkProbe decides one infeasible TurboMap target on a core engine,
// as the PLD ablation does: the n^2 run needs core's IterBudget.
func benchmarkProbe(b *testing.B, name string, pld bool) {
	c := benchCase(b, name)
	opts := core.Options{Decompose: false, PLD: pld, Pipelined: true}
	if !pld {
		opts.IterBudget = 400000
	}
	// Target one below the TurboMap optimum: infeasible by construction.
	base, err := Synthesize(c, Options{Algorithm: TurboMap, NoPack: true, NoRealize: true})
	if err != nil {
		b.Fatal(err)
	}
	target := base.Phi - 1
	if target < 1 {
		b.Skip("optimum already 1; no infeasible probe")
	}
	e, err := core.NewEngine(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, st, err := e.FeasibleContext(context.Background(), target, opts)
		if err != nil {
			b.Fatal(err)
		}
		if ok {
			b.Fatal("target must be infeasible")
		}
		b.ReportMetric(float64(st.Iterations), "iters")
	}
}

func BenchmarkPLDOn_bbara(b *testing.B)  { benchmarkProbe(b, "bbara", true) }
func BenchmarkPLDOff_bbara(b *testing.B) { benchmarkProbe(b, "bbara", false) }
func BenchmarkPLDOn_s420(b *testing.B)   { benchmarkProbe(b, "s420", true) }
func BenchmarkPLDOff_s420(b *testing.B)  { benchmarkProbe(b, "s420", false) }

// --- F-SCALE: runtime growth with circuit size ---
//
// The j1/jN sub-benchmarks pin Options.Workers to 1 (sequential) and 0 (all
// CPUs): comparing them on a multi-core machine measures the parallel label
// engine's speedup on identical work (the results are bit-identical; see
// TestParallelMatchesSequentialGolden in internal/core).

func benchmarkScale(b *testing.B, name string, stateBits, workers int) {
	// ScaleFSM seeds its generator from the name: the j1/jN variants must
	// share one name so they minimize the same circuit.
	c := bench.ScaleFSM(name, stateBits, 8)
	opts := Options{Workers: workers, NoPack: true, NoRealize: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(c, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(c.NumGates()), "gates")
		b.ReportMetric(float64(res.Phi), "phi")
		b.ReportMetric(float64(res.Stats.SweepNodeVisits), "visits")
		b.ReportMetric(float64(res.Stats.DirtySkips), "skips")
	}
}

func BenchmarkScale1k(b *testing.B) {
	b.Run("j1", func(b *testing.B) { benchmarkScale(b, "BenchmarkScale1k", 24, 1) })
	b.Run("jN", func(b *testing.B) { benchmarkScale(b, "BenchmarkScale1k", 24, 0) })
}

func BenchmarkScale2k(b *testing.B) {
	b.Run("j1", func(b *testing.B) { benchmarkScale(b, "BenchmarkScale2k", 48, 1) })
	b.Run("jN", func(b *testing.B) { benchmarkScale(b, "BenchmarkScale2k", 48, 0) })
}

// Pipeline4k is the scheduler's adversarial case: a 4096-gate acyclic
// pipeline whose condensation is 4096 singleton components in 256 ranks of
// 16. The retired level-synchronized scheduler paid one barrier plus pool
// dispatch per rank and ran slower than sequential here; the dataflow
// scheduler chains the singletons into grain-sized inline runs (see
// Result.Stats.InlineTasks) so jN can actually use its workers. One fixed
// feasibility probe, not a full Minimize: the probe is pure label
// computation through the scheduler, while a Minimize would spend most of
// its time in search and mapping that the scheduler doesn't touch.
func benchmarkPipeline(b *testing.B, workers int) {
	c := bench.Pipeline("BenchmarkPipeline4k", 16, 256, 8)
	opts := Options{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, st, err := Feasible(c, 2, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatal("phi=2 must be feasible for the pipeline")
		}
		b.ReportMetric(float64(c.NumGates()), "gates")
		b.ReportMetric(float64(st.Iterations), "iters")
		b.ReportMetric(float64(st.InlineTasks), "inline")
	}
}

func BenchmarkPipeline4k(b *testing.B) {
	b.Run("j1", func(b *testing.B) { benchmarkPipeline(b, 1) })
	b.Run("jN", func(b *testing.B) { benchmarkPipeline(b, 0) })
}

// --- F-SCALE10K: the multi-core scale push ---
//
// Scale10k is a MultiCore fabric: ten independent clusters of four
// pipelined cores, each core one FSM-style loop component.
// Like Pipeline4k these run one fixed feasibility probe (pure label
// computation through the scheduler); phi is the known smallest feasible
// period for the generated circuit, so the probe converges instead of
// blowing its iteration budget. The cluster chains give jN real
// cross-component parallelism — on a multi-core machine jN should beat j1;
// on one CPU they tie.
func benchmarkMultiCore(b *testing.B, c *netlist.Circuit, phi, workers int) {
	opts := Options{Workers: workers}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, st, err := Feasible(c, phi, opts)
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.Fatalf("phi=%d must be feasible for %s", phi, c.Name)
		}
		b.ReportMetric(float64(c.NumGates()), "gates")
		b.ReportMetric(float64(st.SweepNodeVisits), "visits")
		b.ReportMetric(float64(st.DirtySkips), "skips")
		b.ReportMetric(float64(st.WorklistPeak), "wlpeak")
	}
}

func BenchmarkScale10k(b *testing.B) {
	c := bench.Scale10k()
	b.Run("j1", func(b *testing.B) { benchmarkMultiCore(b, c, 3, 1) })
	b.Run("jN", func(b *testing.B) { benchmarkMultiCore(b, c, 3, 0) })
}

// --- Engine reuse: run-persistent analysis, cache and arena pools ---
//
// The oneshot/engine pair runs the same Synthesize workload (no packing or
// realization) through a fresh engine per run (analysis, cold cache, fresh
// arenas) and through one reusable Engine warmed by a single untimed run.
// The deltas in ns/op and allocs/op measure exactly what the engine
// amortizes; the results are bit-identical (TestEngineReuseBitIdentical in
// internal/core).

func benchmarkEngineReuse(b *testing.B, workers int, oneshot bool) {
	c := benchCase(b, "bbara")
	opts := Options{Workers: workers, NoPack: true, NoRealize: true}
	check := func(res *Result, err error) {
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Phi), "phi")
	}
	b.ReportAllocs()
	if oneshot {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			check(Synthesize(c, opts))
		}
		return
	}
	e, err := NewEngine(c, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	check(e.Synthesize()) // untimed warmup: pools filled, cache hot
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		check(e.Synthesize())
	}
}

func BenchmarkEngineReuse(b *testing.B) {
	b.Run("oneshot_j1", func(b *testing.B) { benchmarkEngineReuse(b, 1, true) })
	b.Run("engine_j1", func(b *testing.B) { benchmarkEngineReuse(b, 1, false) })
	b.Run("oneshot_jN", func(b *testing.B) { benchmarkEngineReuse(b, 0, true) })
	b.Run("engine_jN", func(b *testing.B) { benchmarkEngineReuse(b, 0, false) })
}

// --- T-K: LUT-size sweep ---

func BenchmarkKSweep(b *testing.B) {
	c := benchCase(b, "bbara")
	for k := 3; k <= 6; k++ {
		k := k
		b.Run(string(rune('0'+k)), func(b *testing.B) {
			benchmarkSynthesize(b, c, Options{K: k, NoPack: true})
		})
	}
}

// --- F-EX1 is covered by TestSynthesizeAlgorithms (Figure 1 phenomenon); a
// micro benchmark of the same flow: ---

func BenchmarkFigure1Loop6(b *testing.B) {
	c := netlist.NewCircuit("loop6")
	var xs [6]int
	for i := range xs {
		xs[i] = c.AddPI(string(rune('a' + i)))
	}
	g1 := c.AddGate("g1", And(2), Fanin{From: xs[0]}, Fanin{From: xs[0]})
	prev := g1
	for i := 1; i < 6; i++ {
		prev = c.AddGate("g"+string(rune('1'+i)), And(2),
			Fanin{From: prev}, Fanin{From: xs[i]})
	}
	c.Nodes[g1].Fanins[1] = Fanin{From: prev, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("out", prev, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Synthesize(c, Options{NoPack: true, NoRealize: true})
		if err != nil {
			b.Fatal(err)
		}
		if res.Phi != 1 {
			b.Fatalf("phi = %d", res.Phi)
		}
	}
}
