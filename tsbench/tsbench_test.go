package main

import (
	"bytes"
	"context"
	"slices"
	"sync"
	"testing"
	"time"

	"turbosyn"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// inputsOf renders every circuit a workload draws from a seed.
func inputsOf(t *testing.T, workload string, seed int64) [][]byte {
	t.Helper()
	var circuits []*netlist.Circuit
	switch workload {
	case "giant_scc":
		circuits = []*netlist.Circuit{giantCircuit(seed)}
	case "daemon_mix":
		circuits = append(fsmPool(seed), quickPool(seed)...)
	}
	var out [][]byte
	for _, c := range circuits {
		data, err := blifText(c)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, data)
	}
	return out
}

func TestSameSeedSameInputsOtherSeedOtherCircuits(t *testing.T) {
	for workload := range workloads {
		a, b, other := inputsOf(t, workload, 7), inputsOf(t, workload, 7), inputsOf(t, workload, 8)
		if len(a) != len(b) || len(a) != len(other) {
			t.Fatalf("%s: input counts %d/%d/%d", workload, len(a), len(b), len(other))
		}
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Errorf("%s input %d: seed 7 gave two different BLIF texts", workload, i)
			}
			if bytes.Equal(a[i], other[i]) {
				t.Errorf("%s input %d: seeds 7 and 8 gave the same BLIF text", workload, i)
			}
		}
	}
}

// TestRelabelKeepsStructure pins what the seed may change in a heavy
// circuit: names only. Every node keeps its position, kind, function and
// fanins, so the engine does the same work on every seed.
func TestRelabelKeepsStructure(t *testing.T) {
	a, b := giantCircuit(1), giantCircuit(2)
	if err := a.Check(); err != nil {
		t.Fatal(err)
	}
	if len(a.Nodes) != len(b.Nodes) {
		t.Fatalf("relabelled circuits have %d and %d nodes", len(a.Nodes), len(b.Nodes))
	}
	for i, na := range a.Nodes {
		nb := b.Nodes[i]
		if na.Kind != nb.Kind || !slices.Equal(na.Fanins, nb.Fanins) ||
			(na.Kind == netlist.Gate && !na.Func.Equal(nb.Func)) {
			t.Fatalf("node %d differs between seeds: %+v vs %+v", i, na, nb)
		}
	}
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {9999, 99, true}, {10000, 99.9, true},
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := []float64{5, 1, 4, 2, 3}
	if got := percentile(xs, 50); got != 3 {
		t.Errorf("percentile(50) = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// fakeClock is virtual time: Sleep jumps forward instead of waiting.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Sleep(_ context.Context, d time.Duration) { c.advanceTo(c.Now().Add(d)) }

func (c *fakeClock) advanceTo(t time.Time) {
	c.mu.Lock()
	if t.After(c.now) {
		c.now = t
	}
	c.mu.Unlock()
}

// TestOpenLoopLatencyFromDueTime runs two jobs on one connection: A is due
// at 0 and finishes at 30ms, B is due at 10ms, waits for A and finishes at
// 35ms. B's latency must be 25ms (from its due time), not the 5ms it spent
// being served.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	start := clk.now
	a := &job{due: 0}
	b := &job{due: 10 * time.Millisecond}
	finish := map[*job]time.Duration{a: 30 * time.Millisecond, b: 35 * time.Millisecond}
	openLoop(context.Background(), clk, []*job{a, b}, 1, func(_ context.Context, j *job) {
		clk.advanceTo(start.Add(finish[j]))
	})
	if a.latencyMS != 30 || b.latencyMS != 25 {
		t.Fatalf("latencies %v ms and %v ms, want 30 and 25", a.latencyMS, b.latencyMS)
	}
	if a.late < 0 || b.late < 0 {
		t.Fatalf("negative generator lateness %v, %v", a.late, b.late)
	}
}

func TestAttributeSplitsOverlapsByRank(t *testing.T) {
	spans := []span{
		{name: "probe", begin: 0, end: 100},
		{name: "component", begin: 10, end: 60},
		{name: "decompose", begin: 20, end: 30},
		{name: "flow", begin: 25, end: 40},
	}
	got := attribute(spans, engineOps)
	want := map[string]float64{"decompose": 10, "flow": 10, "component": 30, "probe": 50}
	for op, us := range want {
		if got[op] != us {
			t.Errorf("%s: %v µs, want %v", op, got[op], us)
		}
	}
	if c := coverage(spans, "component", "flow"); c != 50 {
		t.Errorf("coverage = %v, want 50", c)
	}
	gapped := append(spans, span{name: "map", begin: 150, end: 170})
	if e := extent(gapped, engineOps); e != 170 {
		t.Errorf("extent = %v, want 170", e)
	}
}

// TestCheckResultRejectsBrokenOutput breaks a checked synthesis's delivered
// BLIF in two ways the engine's own report cannot show, and expects the
// output check to catch both.
func TestCheckResultRejectsBrokenOutput(t *testing.T) {
	input, err := blifText(fsmPool(1)[0])
	if err != nil {
		t.Fatal(err)
	}
	c, err := turbosyn.ReadBLIF(bytes.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	res, err := turbosyn.SynthesizeContext(context.Background(), c, daemonOptions)
	if err != nil {
		t.Fatal(err)
	}
	good, err := blifText(res.Realized)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkResult(1, c, res, good); err != nil {
		t.Fatalf("correct output rejected: %v", err)
	}
	breaks := map[string]func(*netlist.Circuit){
		"inverted output LUT": func(out *netlist.Circuit) {
			g := out.Nodes[out.Nodes[out.POs[0]].Fanins[0].From]
			g.Func = logic.NewTT(g.Func.NumVars()).Not(g.Func)
		},
		"extra output register": func(out *netlist.Circuit) {
			out.Nodes[out.POs[0]].Fanins[0].Weight++
			out.InvalidateCaches()
		},
	}
	for name, breakIt := range breaks {
		out, err := netlist.ReadBLIF(bytes.NewReader(good))
		if err != nil {
			t.Fatal(err)
		}
		breakIt(out)
		bad, err := blifText(out)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkResult(1, c, res, bad); err == nil {
			t.Errorf("%s: broken output passed the check", name)
		} else {
			t.Logf("%s: %v", name, err)
		}
	}
}
