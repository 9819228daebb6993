package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"turbosyn/internal/faultinject"
)

// TestInjectedPanicEngineRecovers: a run that dies to a contained panic
// mid-probe must poison the arenas it had checked out — PoolStats.Discards
// counts them — and the next run on the same engine must complete and stay
// bit-identical to the reference. This is the pooling analogue of
// TestInjectedPanicContained: containment alone is not enough if interrupted
// scratch re-enters the pool.
func TestInjectedPanicEngineRecovers(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			want := reference(t, c, opts)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			plan, off := faultinject.Activate(faultinject.Config{PanicAtCutCheck: 50})
			res, err := e.Minimize(opts)
			off()
			if plan.Fired(faultinject.KindPanicCutCheck) == 0 {
				t.Fatalf("fault never fired (only %d cut checks)",
					plan.Hits(faultinject.KindPanicCutCheck))
			}
			if err == nil || res != nil {
				t.Fatalf("contained panic must surface as an error (err=%v res=%v)", err, res)
			}
			var ie *InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("error is not an *InternalError: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("panicked run poisoned no arenas: %+v", ps)
			}

			res, err = e.Minimize(opts)
			if err != nil {
				t.Fatalf("engine did not recover after a contained panic: %v", err)
			}
			checkMatchesReference(t, "post-panic run", res, want)
		})
	}
}

// TestInjectedCancelEngineRecovers: cancellation mid-probe is the other way
// a run can abandon arenas mid-mutation. The cancelled run's checkouts are
// poisoned at checkin, and the same engine then serves a clean run under a
// fresh context, bit-identical to the reference.
func TestInjectedCancelEngineRecovers(t *testing.T) {
	c := faultCircuit(t)
	for _, workers := range faultWorkerPools {
		t.Run(fmt.Sprintf("j%d", workers), func(t *testing.T) {
			fenceGoroutines(t)
			opts := DefaultOptions()
			opts.Workers = workers
			want := reference(t, c, opts)

			e, err := NewEngine(c, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			ctx, cancel := context.WithCancel(context.Background())
			plan, off := faultinject.Activate(faultinject.Config{
				CancelAtSweep: 3, OnCancel: cancel,
			})
			res, err := e.MinimizeContext(ctx, opts)
			off()
			cancel()
			if plan.Fired(faultinject.KindCancelSweep) == 0 {
				t.Fatalf("cancel point never fired (only %d sweeps)",
					plan.Hits(faultinject.KindCancelSweep))
			}
			if err == nil || res != nil {
				t.Fatalf("cancelled run must surface an error (err=%v res=%v)", err, res)
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("error does not wrap context.Canceled: %v", err)
			}
			if ps := e.PoolStats(); ps.Discards == 0 {
				t.Errorf("cancelled run poisoned no arenas: %+v", ps)
			}

			res, err = e.Minimize(opts)
			if err != nil {
				t.Fatalf("engine did not recover after cancellation: %v", err)
			}
			checkMatchesReference(t, "post-cancel run", res, want)
		})
	}
}
