package core

import (
	"context"
	"fmt"
	"testing"
)

// TestEngineReuseBitIdentical pins the engine's core contract: repeated runs
// on one Engine — analysis shared, decomposition cache warm, arenas and
// states pooled — produce results bit-identical to the reference, for the
// sequential path and both parallel pool sizes. Labels,
// phi, LUT count and the serialized netlist are all compared, so any scratch
// leaking between runs through the pools shows up here.
func TestEngineReuseBitIdentical(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			opts := DefaultOptions()
			opts.Workers = workers
			want := reference(t, c, opts)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for run := 1; run <= 3; run++ {
				res, err := e.MinimizeContext(context.Background(), opts)
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				checkMatchesReference(t, fmt.Sprintf("run %d", run), res, want)
			}
			ps := e.PoolStats()
			if ps.Reuses == 0 {
				t.Error("three runs on one engine never reused a pooled arena")
			}
			if ps.Discards != 0 {
				t.Errorf("clean runs discarded %d arenas", ps.Discards)
			}
		})
	}
}

// TestEngineFeasibleMatchesOneShot: four probes on one engine agree with a
// fresh engine per probe on both verdicts, and pool across probes. The
// infeasible ones poison nothing: an infeasible probe completes normally.
func TestEngineFeasibleMatchesOneShot(t *testing.T) {
	c := faultCircuit(t)
	opts := DefaultOptions()
	opts.Workers = 2
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for phi := 1; phi <= 4; phi++ {
		want, _, err := feasibleOnce(c, phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := e.FeasibleContext(context.Background(), phi, opts)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("phi=%d: engine says %v, one-shot says %v", phi, got, want)
		}
	}
	ps := e.PoolStats()
	if ps.Reuses == 0 {
		t.Error("four probes on one engine never reused an arena")
	}
	if ps.Discards != 0 {
		t.Errorf("probes discarded %d arenas; infeasibility is not poison", ps.Discards)
	}
}

// TestArenaPoolBounded: 20 Minimize runs on one engine (8 under -short) must
// converge to a steady state — after a warmup of the first quarter of the
// runs no new arenas are created, nothing is discarded, the pool has served
// at least Workers reuses per run after the warmup, and no pooled arena
// retains more than twice what the single arena of a fresh Workers 1
// Minimize retains (arenas keep their largest backing arrays, and one arena
// that ran every component bounds what any one of them needed, whichever
// components the schedule gave it). A linear growth in Creates or FreeBytes
// here means arenas leak past the pool.
func TestArenaPoolBounded(t *testing.T) {
	c := faultCircuit(t)
	opts := DefaultOptions()
	opts.Workers = 1
	one, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := one.MinimizeContext(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	perArena := one.PoolStats().FreeBytes
	one.Close()

	opts.Workers = 4
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	runs := 20
	if testing.Short() {
		runs = 8
	}
	warmRuns := runs / 4
	var warm PoolStats
	for run := 1; run <= runs; run++ {
		if _, err := e.MinimizeContext(context.Background(), opts); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if run == warmRuns {
			warm = e.PoolStats()
		}
	}
	final := e.PoolStats()
	// Transient probe concurrency can still demand a few extra arenas right
	// after warmup; what must not happen is per-run growth.
	if final.Creates > warm.Creates+opts.Workers {
		t.Errorf("arena creates kept growing after warmup: %d -> %d", warm.Creates, final.Creates)
	}
	if final.Discards != 0 {
		t.Errorf("clean runs discarded %d arenas", final.Discards)
	}
	if final.FreeBytes > final.Free*2*perArena {
		t.Errorf("pooled bytes grew past bound: %d arenas hold %d, one Workers 1 arena %d",
			final.Free, final.FreeBytes, perArena)
	}
	if final.Reuses < (runs-warmRuns)*opts.Workers {
		t.Errorf("pool barely reused: %+v", final)
	}
}

// TestArenaPoolCheckinRules unit-tests the pool's discard policy directly
// (the engine paths can't reach the over-budget branch: the in-run budget
// degradation resets an arena before it ever reaches checkin oversized).
// Poisoned arenas and arenas over the byte budget are dropped; clean ones
// are pooled, and checkout clears the transient per-probe fields.
func TestArenaPoolCheckinRules(t *testing.T) {
	p := &arenaPool{}
	ar, pooled := p.checkout()
	if pooled {
		t.Fatal("empty pool claimed a pooled arena")
	}
	ar.slab = make([]uint64, 1024) // retained footprint: 8 KiB
	p.checkin(ar, 0)               // unlimited budget: pooled
	if ps := p.snapshot(); ps.Free != 1 || ps.FreeBytes != ar.bytes() {
		t.Fatalf("clean arena not pooled: %+v", ps)
	}
	ar2, pooled := p.checkout()
	if !pooled || ar2 != ar {
		t.Fatal("checkout did not reuse the pooled arena")
	}
	if ar2.poisoned || ar2.built || ar2.ring != nil || ar2.curNode != -1 {
		t.Fatalf("checkout left transient fields set: %+v", ar2)
	}
	p.checkin(ar2, 100) // 8 KiB retained > 100-byte budget: discarded
	if ps := p.snapshot(); ps.Free != 0 || ps.Discards != 1 {
		t.Fatalf("over-budget arena not discarded: %+v", ps)
	}
	ar3, _ := p.checkout()
	ar3.poisoned = true
	p.checkin(ar3, 0)
	if ps := p.snapshot(); ps.Free != 0 || ps.Discards != 2 {
		t.Fatalf("poisoned arena not discarded: %+v", ps)
	}
}

// TestEngineCloseIdempotent: Close flushes once and tolerates repeats; runs
// after Close still compute.
func TestEngineCloseIdempotent(t *testing.T) {
	c := faultCircuit(t)
	opts := DefaultOptions()
	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.FeasibleContext(context.Background(), 2, opts); err != nil {
		t.Fatalf("probe after Close failed: %v", err)
	}
}
