package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// CancelError reports a run aborted by context cancellation or deadline
// expiry. It wraps the context's error (errors.Is sees context.Canceled /
// context.DeadlineExceeded through it) and carries the phase that observed
// the abort, the best feasible phi found before it (-1 when none), and the
// partial work statistics accumulated so far.
type CancelError struct {
	// Phase is the pipeline phase that observed the cancellation:
	// "turbomap-ub", "search", "map" or "probe".
	Phase string
	// BestPhi is the smallest feasible target proven before the abort, -1
	// when no probe had succeeded yet.
	BestPhi int
	// Stats is the partial work performed before the abort.
	Stats Stats
	// Err is the underlying context error.
	Err error
}

func (e *CancelError) Error() string {
	return fmt.Sprintf("core: synthesis aborted during %s: %v", e.Phase, e.Err)
}

func (e *CancelError) Unwrap() error { return e.Err }

// InternalError is a contained panic: a worker goroutine, search probe or
// mapping pass panicked, the panic was recovered at the containment
// boundary, and the run shut down cleanly. Op names the subsystem: "labels"
// (one component's iteration), "scheduler" (a worker of the dataflow
// scheduler), "probe" (a search probe outside those) or "map" (the mapping
// step: generation, and MapAtRatio's own probe); the daemon adds "job". Comp is the
// SCC component and Node the circuit node being processed (-1 when
// unknown), and Value carries the recovered panic value (for injected
// faults, a *faultinject.Injected).
type InternalError struct {
	Op    string // subsystem: "labels", "scheduler", "probe", "map" ("job" in the daemon)
	Phase string // pipeline phase, filled at the public API boundary
	Comp  int    // SCC component id, -1 unknown
	Node  int    // circuit node id, -1 unknown
	Value any    // recovered panic value
	Stack []byte // stack captured at the recovery point
}

func (e *InternalError) Error() string {
	phase := e.Phase
	if phase == "" {
		phase = "?"
	}
	return fmt.Sprintf("core: internal error in %s (phase %s, component %d, node %d): %v",
		e.Op, phase, e.Comp, e.Node, e.Value)
}

// Unwrap exposes a panic value that was itself an error (e.g. an injected
// fault), so errors.Is/As reach through.
func (e *InternalError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// newInternalError converts a recovered panic value into an InternalError,
// capturing the stack at the recovery point.
func newInternalError(r any, op string, comp, node int) *InternalError {
	return &InternalError{Op: op, Comp: comp, Node: node, Value: r, Stack: debug.Stack()}
}

// BudgetError reports a resource budget exhausted under Options.Strict. In
// the default (non-strict) mode exhaustion never errors: the affected node
// degrades to the structural-only feasibility check and the run continues
// (see Stats.Degradations).
type BudgetError struct {
	Resource string // "rothkarp-candidates", "arena-bytes", "injected"
	Node     int    // circuit node whose decision tripped the budget, -1 n/a
	Limit    int    // the configured ceiling
}

func (e *BudgetError) Error() string {
	return fmt.Sprintf("core: %s budget (limit %d) exhausted at node %d under Strict mode",
		e.Resource, e.Limit, e.Node)
}

// isCtxErr reports whether err is (or wraps) a context cancellation or
// deadline error.
func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// wrapAbort dresses a run-aborting error for the public API: context errors
// become a CancelError carrying phase, best-so-far and partial stats;
// InternalErrors get their phase filled in; everything else passes through.
func wrapAbort(err error, phase string, bestPhi int, st Stats) error {
	if isCtxErr(err) {
		var ce *CancelError
		if errors.As(err, &ce) {
			return err // already wrapped by an inner phase
		}
		return &CancelError{Phase: phase, BestPhi: bestPhi, Stats: st, Err: err}
	}
	var ie *InternalError
	if errors.As(err, &ie) && ie.Phase == "" {
		ie.Phase = phase
	}
	return err
}

// runGuard turns a context into the cheap cancellation flag the label
// engine polls at sweep/probe granularity: one watcher goroutine flips an
// atomic when the context is done, and every checkpoint costs a single
// atomic load instead of a channel select. release stops the watcher; the
// guard must be released before the public API call returns.
type runGuard struct {
	ctx  context.Context
	flag atomic.Bool
	stop chan struct{}
}

// startGuard watches ctx. A nil or never-cancellable context (Background)
// produces a guard with no watcher goroutine.
func startGuard(ctx context.Context) *runGuard {
	if ctx == nil {
		ctx = context.Background()
	}
	g := &runGuard{ctx: ctx}
	if done := ctx.Done(); done != nil {
		if ctx.Err() != nil {
			g.flag.Store(true) // already expired; skip the goroutine
			return g
		}
		g.stop = make(chan struct{})
		go func() {
			select {
			case <-done:
				g.flag.Store(true)
			case <-g.stop:
			}
		}()
	}
	return g
}

// release stops the watcher goroutine. Safe to call once on any guard.
func (g *runGuard) release() {
	if g != nil && g.stop != nil {
		close(g.stop)
	}
}

// cancelled reports whether the guarded context is done (one atomic load).
func (g *runGuard) cancelled() bool { return g != nil && g.flag.Load() }

// err returns the context's error (non-nil once cancelled).
func (g *runGuard) err() error {
	if g == nil {
		return nil
	}
	return g.ctx.Err()
}

// failSet records the first run-aborting error of a probe (budget errors in
// Strict mode, contained panics); later errors are dropped. The set flag is
// an atomic so the hot-path stopped() check stays lock-free.
type failSet struct {
	mu  sync.Mutex
	set atomic.Bool
	err error
}

// fail records err if it is the first; it always flips the set flag.
func (f *failSet) fail(err error) {
	if err == nil {
		return
	}
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
	f.set.Store(true)
}

// tripped reports whether an error has been recorded (lock-free).
func (f *failSet) tripped() bool { return f.set.Load() }

// get returns the recorded error, nil when none.
func (f *failSet) get() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}

// reset clears the set for the next probe of a pooled state. Must not be
// called while the probe that tripped it can still run (the Engine resets
// only states that have been checked back in, after their run joined every
// worker).
func (f *failSet) reset() {
	f.mu.Lock()
	f.err = nil
	f.mu.Unlock()
	f.set.Store(false)
}
