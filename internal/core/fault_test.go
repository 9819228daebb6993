package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"turbosyn/internal/decomp"
	"turbosyn/internal/faultinject"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// faultWorkerPools are the worker counts every injection scenario runs
// under; 1 exercises the sequential path's containment, 8 the dataflow
// scheduler's. Injection plans are process-global, so none of these tests
// may call t.Parallel.
var faultWorkerPools = []int{1, 2, 8}

// fenceGoroutines fails the test if goroutines created during it outlive it.
// The engine's containment contract is that every abort path — cancellation,
// Strict budgets, contained panics — joins all workers, probes and guard
// watchers before the public API returns; a leak here means an abort path
// returned early. The deadline absorbs runtime-internal goroutines (GC,
// timer) that settle asynchronously.
func fenceGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			n := runtime.NumGoroutine()
			if n <= before {
				return
			}
			if time.Now().After(deadline) {
				t.Errorf("goroutine leak: %d before, %d after", before, n)
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// faultCircuit is the shared injection workload: an FSM big enough that
// every injection point (cut checks, sweeps, decomposition attempts,
// scheduler tasks) is hit many times per run.
func faultCircuit(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := fsmCircuit(2, 7, 4)()
	if !c.IsKBounded(5) {
		var err error
		if c, err = decomp.KBound(c, 5); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestInjectedPanicContained: a panic at the Nth cut check — deep inside a
// worker's label kernel — must surface as a structured *InternalError whose
// cause unwraps to the injected fault, with no goroutine leaked and no
// partial result returned, for every worker count.
func TestInjectedPanicContained(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		for _, n := range []int64{1, 50, 1000} {
			t.Run(fmt.Sprintf("j%d_n%d", workers, n), func(t *testing.T) {
				fenceGoroutines(t)
				plan, off := faultinject.Activate(faultinject.Config{PanicAtCutCheck: n})
				defer off()
				opts := DefaultOptions()
				opts.Workers = workers
				res, err := minimizeOnce(c, opts)
				if plan.Fired(faultinject.KindPanicCutCheck) == 0 {
					t.Fatalf("fault never fired (only %d cut checks)",
						plan.Hits(faultinject.KindPanicCutCheck))
				}
				if err == nil {
					t.Fatal("contained panic did not surface as an error")
				}
				if res != nil {
					t.Fatal("non-nil result alongside a panic error")
				}
				var ie *InternalError
				if !errors.As(err, &ie) {
					t.Fatalf("error is not an *InternalError: %v", err)
				}
				if ie.Phase == "" {
					t.Error("InternalError.Phase not filled at the API boundary")
				}
				if len(ie.Stack) == 0 {
					t.Error("InternalError.Stack not captured")
				}
				var inj *faultinject.Injected
				if !errors.As(err, &inj) {
					t.Fatalf("cause does not unwrap to the injected fault: %v", err)
				}
				if inj.Kind != faultinject.KindPanicCutCheck || inj.N != n {
					t.Errorf("wrong fault surfaced: %+v", inj)
				}
			})
		}
	}
}

// TestInjectedCancelMidSweep: cancelling the context from inside a sweep
// checkpoint must abort the run with a *CancelError that wraps
// context.Canceled, for every worker count.
func TestInjectedCancelMidSweep(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			plan, off := faultinject.Activate(faultinject.Config{
				CancelAtSweep: 3, OnCancel: cancel,
			})
			defer off()
			opts := DefaultOptions()
			opts.Workers = workers
			res, err := minimizeOnceContext(ctx, c, opts)
			if plan.Fired(faultinject.KindCancelSweep) == 0 {
				t.Fatalf("cancel point never fired (only %d sweeps)",
					plan.Hits(faultinject.KindCancelSweep))
			}
			if err == nil {
				t.Fatal("cancelled run returned no error")
			}
			if res != nil {
				t.Fatal("non-nil result alongside a cancellation error")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			var ce *CancelError
			if !errors.As(err, &ce) {
				t.Fatalf("error is not a *CancelError: %v", err)
			}
			if ce.Phase == "" {
				t.Error("CancelError.Phase empty")
			}
		})
	}
}

// TestInjectedBudgetExhaustion: forced decomposition-budget exhaustion on
// every node degrades gracefully by default — counted in Stats.Degradations,
// mapping still valid — and aborts with a *BudgetError under Strict.
func TestInjectedBudgetExhaustion(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("graceful_j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			plan, off := faultinject.Activate(faultinject.Config{
				ExhaustBudgetEnabled: true, ExhaustBudgetNode: faultinject.AnyNode,
			})
			defer off()
			opts := DefaultOptions()
			opts.Workers = workers
			res, err := minimizeOnce(c, opts)
			if err != nil {
				t.Fatalf("graceful degradation must not error: %v", err)
			}
			if plan.Fired(faultinject.KindExhaustBudget) == 0 {
				t.Skip("no decomposition attempted; nothing to degrade")
			}
			if res.Stats.Degradations == 0 {
				t.Error("budget exhaustion not counted in Stats.Degradations")
			}
			if err := res.Mapped.Check(); err != nil {
				t.Errorf("degraded mapping violates invariants: %v", err)
			}
			if !res.Mapped.IsKBounded(opts.K) {
				t.Error("degraded mapping not K-bounded")
			}
		})
		t.Run(fmt.Sprintf("strict_j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			_, off := faultinject.Activate(faultinject.Config{
				ExhaustBudgetEnabled: true, ExhaustBudgetNode: faultinject.AnyNode,
			})
			defer off()
			opts := DefaultOptions()
			opts.Workers = workers
			opts.Strict = true
			res, err := minimizeOnce(c, opts)
			if err == nil {
				t.Fatal("Strict budget exhaustion must error")
			}
			if res != nil {
				t.Fatal("non-nil result alongside a Strict budget error")
			}
			var be *BudgetError
			if !errors.As(err, &be) {
				t.Fatalf("error is not a *BudgetError: %v", err)
			}
			if be.Resource != "injected" {
				t.Errorf("Resource = %q, want \"injected\"", be.Resource)
			}
		})
	}
}

// TestInjectedSlowWorker: pathological per-task delays reorder the dataflow
// scheduler aggressively but must not change any result — the determinism
// contract holds under timing chaos.
func TestInjectedSlowWorker(t *testing.T) {
	c := faultCircuit(t)
	opts := DefaultOptions()
	want := reference(t, c, opts)

	fenceGoroutines(t)
	_, off := faultinject.Activate(faultinject.Config{
		SlowEveryNthTask: 2, SlowDelay: 200 * time.Microsecond,
	})
	defer off()
	opts.Workers = 8
	got, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	checkMatchesReference(t, "slow workers", got, want)
}

// loop6mix is loop6 with alternating AND/OR gates: its loop cone function is
// non-associative, so resynthesis cannot take the balanced-tree fast path
// and must run the budgeted Roth-Karp bound-set search.
func loop6mix(t *testing.T) *netlist.Circuit {
	t.Helper()
	c := netlist.NewCircuit("loop6mix")
	xs := make([]int, 7)
	for i := 1; i <= 6; i++ {
		xs[i] = c.AddPI(string(rune('a' + i - 1)))
	}
	g1 := c.AddGate("g1", logic.AndAll(2),
		netlist.Fanin{From: xs[1]}, netlist.Fanin{From: xs[1]})
	prev := g1
	for i := 2; i <= 6; i++ {
		fn := logic.AndAll(2)
		if i%2 == 0 {
			fn = logic.OrAll(2)
		}
		prev = c.AddGate("g"+string(rune('0'+i)), fn,
			netlist.Fanin{From: prev}, netlist.Fanin{From: xs[i]})
	}
	c.Nodes[g1].Fanins[1] = netlist.Fanin{From: prev, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", prev, 0)
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRealBudgetDegradation exercises the genuine budget lever (not the
// injected ones): a 1-candidate Roth-Karp allowance truncates the bound-set
// search (it needs more than one bound set on this cone), so TurboSYN
// degrades to structural cuts on resynthesis attempts that reach the
// Roth-Karp search — Degradations counted, mapping still valid and no
// better than the starved search allows, and Strict surfaces the exhausted
// budget as a *BudgetError.
func TestRealBudgetDegradation(t *testing.T) {
	c := loop6mix(t)
	opts := turboSYNOpts()
	base, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if base.Stats.DecompAttempts == 0 {
		t.Fatal("loop6mix must exercise the decomposition search unbudgeted")
	}

	opts.RothKarpBudget = 1
	res, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degradations == 0 {
		t.Fatal("1-candidate Roth-Karp budget should degrade the bound-set search")
	}
	if err := res.Mapped.Check(); err != nil {
		t.Fatalf("degraded mapping violates invariants: %v", err)
	}
	if res.Phi < base.Phi {
		t.Errorf("starved search beat the full one: phi %d < %d", res.Phi, base.Phi)
	}

	opts.Strict = true
	if _, err := minimizeOnce(c, opts); err == nil {
		t.Fatal("Strict mode must surface the exhausted Roth-Karp budget")
	} else {
		var be *BudgetError
		if !errors.As(err, &be) {
			t.Fatalf("error is not a *BudgetError: %v", err)
		}
		if be.Resource != "rothkarp-candidates" || be.Limit != 1 {
			t.Errorf("Resource, Limit = %q, %d; want \"rothkarp-candidates\", 1", be.Resource, be.Limit)
		}
	}
}

// TestGenerousBudgetsBitIdentical: budgets that never trip must leave the
// result bit-identical to the unbudgeted reference — the degradation
// machinery may not perturb untripped paths.
func TestGenerousBudgetsBitIdentical(t *testing.T) {
	c := faultCircuit(t)
	opts := DefaultOptions()
	want := reference(t, c, opts)
	opts.RothKarpBudget = 1 << 30
	opts.ArenaByteBudget = 1 << 40
	got, err := minimizeOnce(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats.Degradations != 0 {
		t.Fatalf("generous budgets tripped %d times", got.Stats.Degradations)
	}
	checkMatchesReference(t, "generous budgets", got, want)
}

// TestRandomizedChaos replays seeded random injection plans (panic point +
// slow workers) against the parallel engine: every repetition must end in
// either a clean result or a structured error that unwraps to the injected
// fault — never a hang, leak or unstructured crash.
func TestRandomizedChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep; skipped in -short")
	}
	c := faultCircuit(t)
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			fenceGoroutines(t)
			plan, off := faultinject.Activate(faultinject.RandomizedConfig(seed, 20000))
			defer off()
			opts := DefaultOptions()
			opts.Workers = 8
			res, err := minimizeOnce(c, opts)
			switch {
			case err == nil:
				// The panic point lay beyond this run's cut checks; the run
				// must then be fully intact.
				if plan.Fired(faultinject.KindPanicCutCheck) != 0 {
					t.Fatal("fault fired but no error surfaced")
				}
				if cerr := res.Mapped.Check(); cerr != nil {
					t.Fatalf("clean run produced invalid mapping: %v", cerr)
				}
			default:
				var inj *faultinject.Injected
				if !errors.As(err, &inj) {
					t.Fatalf("chaos error is not the injected fault: %v", err)
				}
			}
		})
	}
}

// TestCancelBeforeStart: an already-expired context must abort before any
// label work happens.
func TestCancelBeforeStart(t *testing.T) {
	fenceGoroutines(t)
	c := faultCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := minimizeOnceContext(ctx, c, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) {
		t.Fatalf("error is not a *CancelError: %v", err)
	}
	if ce.BestPhi != -1 {
		t.Errorf("BestPhi = %d before any probe, want -1", ce.BestPhi)
	}
}

// TestFeasibleContextCancel covers the single-probe entry point's abort path.
func TestFeasibleContextCancel(t *testing.T) {
	fenceGoroutines(t)
	c := faultCircuit(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, off := faultinject.Activate(faultinject.Config{
		CancelAtSweep: 2, OnCancel: cancel,
	})
	defer off()
	_, _, err := feasibleOnceContext(ctx, c, 1, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
