package core

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
)

// refResult is a reference mapping together with its serialized netlist.
type refResult struct {
	*Result
	blif []byte
}

var (
	refMu   sync.Mutex
	refMemo = map[string]*refResult{}
)

// reference is the single baseline every bit-identity test in this package
// compares against. It is sequential (Workers 1), full-sweep (the dirty-set
// worklist off, through Engine.fullSweep) and cold like every probe:
// instead of the production binary search it scans phi upward with
// single-probe FeasibleContext calls and maps at the first feasible phi with
// mapAt. Feasibility is monotone in phi, so the scan reaches the phi
// the search finds by a different route, and neither the worklist, the
// dataflow scheduler nor the binary search can leak into the baseline.
//
// Results are memoized per input netlist and option set (callers only read
// them), so tests sharing a circuit pay for its reference once.
func reference(t *testing.T, c *netlist.Circuit, opts Options) *refResult {
	t.Helper()
	opts = opts.withDefaults()
	opts.Workers = 1
	opts.Trace, opts.Progress, opts.Logger = nil, nil, nil
	var in bytes.Buffer
	if err := netlist.WriteBLIF(&in, c); err != nil {
		t.Fatalf("reference: WriteBLIF: %v", err)
	}
	key := fmt.Sprintf("%+v\n%s", opts, in.Bytes())
	refMu.Lock()
	defer refMu.Unlock()
	if r, ok := refMemo[key]; ok {
		return r
	}

	e, err := NewEngine(c, opts)
	if err != nil {
		t.Fatalf("reference: %v", err)
	}
	defer e.Close()
	e.fullSweep = true
	ub := retime.Period(c) // the one-gate-per-LUT mapping meets it
	if ub < 1 {
		ub = 1
	}
	for phi := 1; phi <= ub; phi++ {
		ok, _, err := e.FeasibleContext(context.Background(), phi, opts)
		if err != nil {
			t.Fatalf("reference: probe phi=%d: %v", phi, err)
		}
		if !ok {
			continue
		}
		res, err := mapAt(e, phi, opts)
		if err != nil {
			t.Fatalf("reference: map phi=%d: %v", phi, err)
		}
		r := &refResult{Result: res, blif: blifBytes(t, res.Mapped)}
		refMemo[key] = r
		return r
	}
	t.Fatalf("reference: no feasible phi up to %d for %s", ub, c.Name)
	return nil
}

// mapAt maps e's circuit at phi through the steps MinimizeContext ends
// with: one cold probe whose state is kept (withState under a call from
// begin), then mapStep's generation from that state. It fails when phi is
// infeasible.
func mapAt(e *Engine, phi int, opts Options) (*Result, error) {
	c, err := e.begin(context.Background(), opts)
	if err != nil {
		return nil, err
	}
	var st Stats
	s, err := e.withState(phi, c.opts, c, "probe", func(s *state) (bool, error) {
		defer func() { st = s.stats }()
		ok, err := s.run()
		if err == nil && !ok {
			err = fmt.Errorf("target %d is infeasible for %s", phi, e.c.Name)
		}
		return true, err
	})
	var res *Result
	if err == nil {
		res, err = e.mapStep(c.opts, phi, s)
	}
	if err := c.end(&st, err, "map", -1); err != nil {
		return nil, err
	}
	res.Stats = st
	return res, nil
}

// checkMatchesReference fails the test unless got reproduces the reference
// bit for bit: phi, LUT count, every converged label and the serialized
// mapped netlist.
func checkMatchesReference(t *testing.T, what string, got *Result, want *refResult) {
	t.Helper()
	if got.Phi != want.Phi || got.LUTs != want.LUTs {
		t.Errorf("%s: phi %d/%d, LUTs %d/%d against the reference",
			what, got.Phi, want.Phi, got.LUTs, want.LUTs)
	}
	if len(got.Labels) != len(want.Labels) {
		t.Fatalf("%s: %d labels, reference %d", what, len(got.Labels), len(want.Labels))
	}
	for id := range want.Labels {
		if got.Labels[id] != want.Labels[id] {
			t.Fatalf("%s: label[%d] = %d, reference %d", what, id, got.Labels[id], want.Labels[id])
		}
	}
	if !bytes.Equal(blifBytes(t, got.Mapped), want.blif) {
		t.Errorf("%s: mapped netlist differs from the reference", what)
	}
}

// identityWorkerPools are the worker counts the reference suites run the
// production path under: sequential, small and oversubscribed pools, and
// whatever this machine's GOMAXPROCS is (deduplicated).
func identityWorkerPools() []int {
	pools := []int{1, 2, 8}
	for _, w := range pools {
		if w == runtime.GOMAXPROCS(0) {
			return pools
		}
	}
	return append(pools, runtime.GOMAXPROCS(0))
}

// newState builds a standalone probe state: a throwaway analysis, a private
// decomposition cache and counter set, no arena pool. The engine paths use
// checkoutState instead; the direct-probe tests use this.
func newState(c *netlist.Circuit, phi int, opts Options) *state {
	s := blankState(c, analyze(c), &arenaPool{})
	s.resetFor(phi, opts)
	s.cache = newDecompCache()
	s.conc = &counters{}
	return s
}

// coldProbe runs one cold, sequential probe at phi on a standalone state
// (private decomposition cache and counters), with the worklist on or — the
// reference configuration — off.
func coldProbe(t *testing.T, c *netlist.Circuit, phi int, opts Options, fullSweep bool) (bool, *state) {
	t.Helper()
	opts = opts.withDefaults()
	opts.Workers = 1
	s := newState(c, phi, opts)
	s.fullSweep = fullSweep
	ok, err := s.run()
	if err != nil {
		t.Fatalf("phi=%d fullSweep=%v: %v", phi, fullSweep, err)
	}
	return ok, s
}
