package faultinject

import (
	"sync"
	"testing"
)

func TestHooksNoOpWhenDisabled(t *testing.T) {
	if active.Load() != nil {
		t.Fatal("plan active at test start")
	}
	// None of these may panic, sleep or report anything without a plan.
	CutCheck()
	Sweep()
	if BudgetExhausted(3) {
		t.Error("BudgetExhausted true without a plan")
	}
	Delay()
}

func TestCutCheckFiresExactlyOnce(t *testing.T) {
	plan, off := Activate(Config{PanicAtCutCheck: 3})
	defer off()
	fired := 0
	for i := 0; i < 10; i++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					inj, ok := r.(*Injected)
					if !ok {
						t.Fatalf("panic value %T, want *Injected", r)
					}
					if inj.Kind != KindPanicCutCheck || inj.N != 3 {
						t.Fatalf("wrong injection: %+v", inj)
					}
					fired++
				}
			}()
			CutCheck()
		}()
	}
	if fired != 1 {
		t.Fatalf("fired %d times, want exactly once", fired)
	}
	if plan.Hits(KindPanicCutCheck) != 10 || plan.Fired(KindPanicCutCheck) != 1 {
		t.Fatalf("hits=%d fired=%d", plan.Hits(KindPanicCutCheck), plan.Fired(KindPanicCutCheck))
	}
}

func TestCutCheckFiresOnceUnderConcurrency(t *testing.T) {
	plan, off := Activate(Config{PanicAtCutCheck: 50})
	defer off()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				func() {
					defer func() { recover() }()
					CutCheck()
				}()
			}
		}()
	}
	wg.Wait()
	if n := plan.Fired(KindPanicCutCheck); n != 1 {
		t.Fatalf("fired %d times across 8 goroutines, want exactly once", n)
	}
	if n := plan.Hits(KindPanicCutCheck); n != 800 {
		t.Fatalf("hits = %d, want 800", n)
	}
}

func TestActivateIsExclusive(t *testing.T) {
	_, off := Activate(Config{})
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Activate did not panic")
			}
		}()
		Activate(Config{})
	}()
	off()
	if active.Load() != nil {
		t.Fatal("plan still active after deactivation")
	}
	// A fresh activation must now succeed.
	_, off2 := Activate(Config{})
	off2()
}

func TestBudgetExhaustedNodeFilter(t *testing.T) {
	plan, off := Activate(Config{ExhaustBudgetEnabled: true, ExhaustBudgetNode: 7})
	defer off()
	if BudgetExhausted(3) {
		t.Error("fired for the wrong node")
	}
	if !BudgetExhausted(7) {
		t.Error("did not fire for the configured node")
	}
	if plan.Fired(KindExhaustBudget) != 1 {
		t.Errorf("fired = %d, want 1", plan.Fired(KindExhaustBudget))
	}
}

func TestSweepInvokesOnCancelOnce(t *testing.T) {
	calls := 0
	_, off := Activate(Config{CancelAtSweep: 2, OnCancel: func() { calls++ }})
	defer off()
	for i := 0; i < 5; i++ {
		Sweep()
	}
	if calls != 1 {
		t.Fatalf("OnCancel called %d times, want 1", calls)
	}
}

func TestRandomizedConfigDeterministic(t *testing.T) {
	a := RandomizedConfig(42, 1000)
	b := RandomizedConfig(42, 1000)
	if a.PanicAtCutCheck != b.PanicAtCutCheck || a.SlowEveryNthTask != b.SlowEveryNthTask ||
		a.SlowDelay != b.SlowDelay {
		t.Fatalf("same seed produced different plans: %+v vs %+v", a, b)
	}
	c := RandomizedConfig(43, 1000)
	if a.PanicAtCutCheck == c.PanicAtCutCheck && a.SlowEveryNthTask == c.SlowEveryNthTask {
		t.Error("adjacent seeds produced identical plans (suspicious derivation)")
	}
	if a.PanicAtCutCheck < 1 || a.PanicAtCutCheck > 1000 {
		t.Errorf("PanicAtCutCheck %d out of [1, 1000]", a.PanicAtCutCheck)
	}
}
