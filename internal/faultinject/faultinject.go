// Package faultinject provides deterministic, seedable fault-injection
// points for stress-testing the synthesis engine's fault containment:
// panics at a chosen cut check, cancellation at a chosen sweep checkpoint,
// forced budget exhaustion at a chosen node, and artificially slow workers.
//
// The engine calls the exported hooks (CutCheck, Sweep, BudgetExhausted,
// Delay) unconditionally; with no plan activated each hook is a single
// atomic nil-load that the compiler inlines, so the instrumented hot paths
// cost nothing measurable in production. Tests activate a Plan, run the
// engine, and deactivate it; activation is process-global and exclusive, so
// injection tests must not run in parallel with each other.
//
// Determinism: every trigger is counted by a process-wide atomic, so "the
// Nth cut check" fires exactly once after N hook hits regardless of worker
// count or schedule. Which goroutine observes the fault may vary; that the
// fault fires, and how often, does not.
package faultinject

import (
	"fmt"
	"sync/atomic"
	"time"
)

// Kind identifies one class of injection point.
type Kind uint8

// Injection points instrumented in the engine.
const (
	// KindPanicCutCheck panics inside the label kernel at the Nth
	// structural cut check (exercises worker panic containment).
	KindPanicCutCheck Kind = iota
	// KindCancelSweep invokes the plan's OnCancel callback at the Nth sweep
	// checkpoint (exercises mid-sweep context cancellation).
	KindCancelSweep
	// KindExhaustBudget reports forced budget exhaustion for a chosen node
	// (exercises graceful degradation and Strict-mode errors).
	KindExhaustBudget
	// KindSlowWorker sleeps at every Nth scheduler task (exercises the
	// scheduler under pathological load imbalance).
	KindSlowWorker
	// KindPanicJob panics inside the daemon's per-job execution fence at the
	// Nth job start (exercises fleet-level panic containment: one poisoned
	// job must not kill the serving workers).
	KindPanicJob
	// KindJournalFail makes the daemon's job-journal append fail at the Nth
	// write (exercises accepted-job durability under storage faults).
	KindJournalFail
	// KindSlowTenant delays every job of one tenant (exercises fair-share
	// scheduling: a slow tenant must not starve the others).
	KindSlowTenant

	numKinds
)

func (k Kind) String() string {
	switch k {
	case KindPanicCutCheck:
		return "panic-cut-check"
	case KindCancelSweep:
		return "cancel-sweep"
	case KindExhaustBudget:
		return "exhaust-budget"
	case KindSlowWorker:
		return "slow-worker"
	case KindPanicJob:
		return "panic-job"
	case KindJournalFail:
		return "journal-fail"
	case KindSlowTenant:
		return "slow-tenant"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// AnyNode makes KindExhaustBudget fire for every node.
const AnyNode = -1

// Config describes one injection plan. Zero fields disable the
// corresponding point.
type Config struct {
	// Seed labels the plan (reproducibility bookkeeping) and seeds
	// RandomizedConfig-derived plans.
	Seed int64
	// PanicAtCutCheck fires KindPanicCutCheck at the Nth cut check
	// (1-based; 0 disables).
	PanicAtCutCheck int64
	// CancelAtSweep fires KindCancelSweep — calling OnCancel — at the Nth
	// sweep checkpoint (1-based; 0 disables).
	CancelAtSweep int64
	// OnCancel is the callback KindCancelSweep invokes (typically a
	// context.CancelFunc). Required when CancelAtSweep > 0.
	OnCancel func()
	// ExhaustBudgetNode forces budget exhaustion for decomposition attempts
	// of this node id (AnyNode = all nodes). Disabled when
	// ExhaustBudgetEnabled is false.
	ExhaustBudgetNode    int
	ExhaustBudgetEnabled bool
	// SlowEveryNthTask sleeps SlowDelay at every Nth scheduler task
	// (0 disables).
	SlowEveryNthTask int64
	// SlowDelay is the KindSlowWorker sleep (default 1ms when unset).
	SlowDelay time.Duration

	// Server-path injection points (daemon robustness scenarios).

	// PanicAtJob fires KindPanicJob at the Nth JobStart hook hit (1-based;
	// 0 disables).
	PanicAtJob int64
	// JournalFailAt makes the Nth JournalWrite hook return an error
	// (1-based; 0 disables). When JournalFailAll is also set, every write
	// from the Nth on fails — a dead disk rather than a transient fault.
	JournalFailAt  int64
	JournalFailAll bool
	// SlowTenant delays every job of this tenant by SlowTenantDelay
	// (default 1ms when unset). Empty disables.
	SlowTenant      string
	SlowTenantDelay time.Duration
}

// Plan is an activated injection schedule with its live trigger counters.
type Plan struct {
	cfg   Config
	hits  [numKinds]atomic.Int64
	fired [numKinds]atomic.Int64
}

// Injected is the panic value of KindPanicCutCheck; containment layers
// surface it inside their structured errors, which is how tests tell an
// injected fault from a genuine bug.
type Injected struct {
	Kind Kind
	N    int64 // the hit count at which the point fired
}

func (e *Injected) Error() string {
	return fmt.Sprintf("faultinject: injected %s at hit %d", e.Kind, e.N)
}

// active is the process-global plan; nil (the common case) short-circuits
// every hook.
var active atomic.Pointer[Plan]

// Activate installs the plan and returns its deactivation function. It
// panics if another plan is already active: injection tests are exclusive
// by design.
func Activate(cfg Config) (*Plan, func()) {
	p := &Plan{cfg: cfg}
	if p.cfg.SlowDelay == 0 {
		p.cfg.SlowDelay = time.Millisecond
	}
	if !active.CompareAndSwap(nil, p) {
		panic("faultinject: a plan is already active")
	}
	return p, func() { active.CompareAndSwap(p, nil) }
}

// Fired reports how many times the given point has fired under this plan.
func (p *Plan) Fired(k Kind) int64 { return p.fired[k].Load() }

// Hits reports how many times the given hook has been reached under this
// plan (fired or not).
func (p *Plan) Hits(k Kind) int64 { return p.hits[k].Load() }

// CutCheck is called by the label kernel before every structural cut check.
// Under KindPanicCutCheck it panics with *Injected at the configured hit.
func CutCheck() {
	p := active.Load()
	if p == nil {
		return
	}
	n := p.hits[KindPanicCutCheck].Add(1)
	if want := p.cfg.PanicAtCutCheck; want > 0 && n == want {
		p.fired[KindPanicCutCheck].Add(1)
		panic(&Injected{Kind: KindPanicCutCheck, N: n})
	}
}

// Sweep is called at every sweep cancellation checkpoint. Under
// KindCancelSweep it invokes the plan's OnCancel callback at the configured
// hit.
func Sweep() {
	p := active.Load()
	if p == nil {
		return
	}
	n := p.hits[KindCancelSweep].Add(1)
	if want := p.cfg.CancelAtSweep; want > 0 && n == want && p.cfg.OnCancel != nil {
		p.fired[KindCancelSweep].Add(1)
		p.cfg.OnCancel()
	}
}

// BudgetExhausted reports whether decomposition-budget exhaustion should be
// simulated for node. Always false without an active KindExhaustBudget plan.
func BudgetExhausted(node int) bool {
	p := active.Load()
	if p == nil {
		return false
	}
	if !p.cfg.ExhaustBudgetEnabled {
		return false
	}
	p.hits[KindExhaustBudget].Add(1)
	if p.cfg.ExhaustBudgetNode != AnyNode && p.cfg.ExhaustBudgetNode != node {
		return false
	}
	p.fired[KindExhaustBudget].Add(1)
	return true
}

// Delay is called once per scheduler task. Under KindSlowWorker it sleeps
// at every Nth task.
func Delay() {
	p := active.Load()
	if p == nil {
		return
	}
	every := p.cfg.SlowEveryNthTask
	if every <= 0 {
		return
	}
	if p.hits[KindSlowWorker].Add(1)%every == 0 {
		p.fired[KindSlowWorker].Add(1)
		time.Sleep(p.cfg.SlowDelay)
	}
}

// JobStart is called by the daemon's worker fence as a job enters
// execution. Under KindPanicJob it panics with *Injected at the configured
// hit; under KindSlowTenant it sleeps when the job belongs to the slow
// tenant.
func JobStart(tenant string) {
	p := active.Load()
	if p == nil {
		return
	}
	n := p.hits[KindPanicJob].Add(1)
	if want := p.cfg.PanicAtJob; want > 0 && n == want {
		p.fired[KindPanicJob].Add(1)
		panic(&Injected{Kind: KindPanicJob, N: n})
	}
	if p.cfg.SlowTenant != "" && tenant == p.cfg.SlowTenant {
		p.hits[KindSlowTenant].Add(1)
		p.fired[KindSlowTenant].Add(1)
		d := p.cfg.SlowTenantDelay
		if d == 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	}
}

// JournalWrite is called by the daemon's job journal before every append.
// Under KindJournalFail it returns *Injected (as an error) at the
// configured hit — and at every later hit when JournalFailAll is set.
func JournalWrite() error {
	p := active.Load()
	if p == nil {
		return nil
	}
	want := p.cfg.JournalFailAt
	if want <= 0 {
		return nil
	}
	n := p.hits[KindJournalFail].Add(1)
	if n == want || (p.cfg.JournalFailAll && n > want) {
		p.fired[KindJournalFail].Add(1)
		return &Injected{Kind: KindJournalFail, N: n}
	}
	return nil
}

// RandomizedConfig derives a deterministic pseudo-random plan from seed: a
// panic point within the first maxN cut checks and a slow worker every few
// tasks. Used by chaos runs to vary injection points across repetitions
// while keeping each repetition reproducible from its seed.
func RandomizedConfig(seed, maxN int64) Config {
	if maxN < 1 {
		maxN = 1
	}
	// splitmix64 steps; no math/rand dependency so the derivation is frozen.
	next := func(x *uint64) uint64 {
		*x += 0x9e3779b97f4a7c15
		z := *x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	x := uint64(seed)
	return Config{
		Seed:             seed,
		PanicAtCutCheck:  int64(next(&x)%uint64(maxN)) + 1,
		SlowEveryNthTask: int64(next(&x)%8) + 2,
		SlowDelay:        time.Duration(next(&x)%1000) * time.Microsecond,
	}
}
