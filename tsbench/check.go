package main

import (
	"bytes"
	"context"
	"fmt"

	"turbosyn"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// lutK is the LUT input bound every workload synthesizes for (the default).
const lutK = 5

// reference is one input and the output the program must produce for it: a
// synthesis through the public library, checked without trusting the
// engine's report. Program outputs are compared to it byte for byte.
type reference struct {
	circuit *netlist.Circuit // the input as the program parses it
	input   []byte           // BLIF text the program receives
	output  []byte           // BLIF text the program must return
	phi     int
	luts    int
}

// buildReference synthesizes c through the library with opts and checks the
// result with checkResult.
func buildReference(ctx context.Context, seed int64, c *netlist.Circuit, opts turbosyn.Options) (*reference, error) {
	input, err := blifText(c)
	if err != nil {
		return nil, err
	}
	parsed, err := turbosyn.ReadBLIF(bytes.NewReader(input))
	if err != nil {
		return nil, fmt.Errorf("%s: generated BLIF does not parse: %w", c.Name, err)
	}
	res, err := turbosyn.SynthesizeContext(ctx, parsed, opts)
	if err != nil {
		return nil, fmt.Errorf("%s: reference synthesis: %w", c.Name, err)
	}
	output, err := blifText(res.Realized)
	if err != nil {
		return nil, err
	}
	if err := checkResult(seed, parsed, res, output); err != nil {
		return nil, fmt.Errorf("%s: reference fails its check: %w", c.Name, err)
	}
	return &reference{circuit: parsed, input: input, output: output, phi: res.Phi, luts: res.LUTs}, nil
}

// checkResult verifies a synthesis of in independently of the engine:
//   - the mapped network reproduces in's output streams (aligned simulation
//     on vectors drawn from the seed);
//   - every LUT has at most lutK inputs;
//   - the delivered BLIF re-parses, has res.LUTs LUTs, and its clock period
//     and maximum delay-to-register ratio are at most the reported phi;
//   - the delivered network is a retiming of the mapped network and
//     reproduces its output streams, each delayed by its reported pipeline
//     latency (compareRetimed).
func checkResult(seed int64, in *netlist.Circuit, res *turbosyn.Result, output []byte) error {
	if err := sim.CompareAligned(in, res.Mapped, res.OrigOf, vectorsFor(seed, in), 16); err != nil {
		return fmt.Errorf("mapped network differs from the input: %w", err)
	}
	if err := checkLUTs(res.Mapped); err != nil {
		return fmt.Errorf("mapped network: %w", err)
	}
	out, err := netlist.ReadBLIF(bytes.NewReader(output))
	if err != nil {
		return fmt.Errorf("output BLIF does not re-parse: %w", err)
	}
	if err := checkLUTs(out); err != nil {
		return fmt.Errorf("output: %w", err)
	}
	if got := out.NumGates(); got != res.LUTs {
		return fmt.Errorf("output has %d LUTs, engine reports %d", got, res.LUTs)
	}
	if len(out.PIs) != len(in.PIs) || len(out.POs) != len(in.POs) {
		return fmt.Errorf("output interface %d/%d PIs/POs, input %d/%d", len(out.PIs), len(out.POs), len(in.PIs), len(in.POs))
	}
	if p := retime.Period(out); p > res.Phi {
		return fmt.Errorf("output clock period %d exceeds reported phi %d", p, res.Phi)
	}
	if num, den := retime.MaxCycleRatio(out); num > int64(res.Phi)*den {
		return fmt.Errorf("output cycle ratio %d/%d exceeds reported phi %d", num, den, res.Phi)
	}
	if err := compareRetimed(res.Mapped, out, res.Latency, vectorsFor(seed, in)); err != nil {
		return fmt.Errorf("output differs from the mapped network: %w", err)
	}
	return nil
}

// compareRetimed checks that out, the delivered network, is a retiming of
// the mapped network m that reproduces m's behaviour. Retiming keeps every
// LUT and its fanins and moves registers: each node v gets a lag r(v), with
// r = 0 on the inputs and the reported pipeline latency on each output, and
// an edge u→v of m with w registers carries w + r(v) − r(u) in out. So
// node v of out emits at cycle t what node v of m emitted at t − r(v).
//
// The lags are recovered from the two networks and checked on every edge.
// Then m runs from its all-zero reset while its node streams are recorded;
// from a cycle t0 on, out runs with every register chain seeded from those
// streams (the initial-state computation retiming needs, as
// sim.CompareAligned does for the mapper), and each output j of out must
// equal m's output j latency[j] cycles earlier.
func compareRetimed(m, out *netlist.Circuit, latency []int, vectors [][]bool) error {
	if len(latency) != len(m.POs) {
		return fmt.Errorf("%d output latencies for %d outputs", len(latency), len(m.POs))
	}
	// Match nodes: inputs and outputs by position, LUTs by name.
	mOf := make([]int, out.NumNodes())
	gates := map[string]int{}
	for _, n := range m.Nodes {
		if n.Kind == netlist.Gate {
			gates[n.Name] = n.ID
		}
	}
	for i, id := range out.PIs {
		mOf[id] = m.PIs[i]
	}
	for i, id := range out.POs {
		mOf[id] = m.POs[i]
	}
	for _, n := range out.Nodes {
		if n.Kind == netlist.Gate {
			id, ok := gates[n.Name]
			if !ok || len(m.Nodes[id].Fanins) != len(n.Fanins) || !m.Nodes[id].Func.Equal(n.Func) {
				return fmt.Errorf("LUT %s has no identical LUT in the mapped network", n.Name)
			}
			mOf[n.ID] = id
		}
	}

	// Recover the lags: r(v) − r(u) = w_out − w_m on every edge u→v.
	type edge struct{ u, v, d int }
	var edges []edge
	adj := make([][]int, out.NumNodes())
	for _, n := range out.Nodes {
		mn := m.Nodes[mOf[n.ID]]
		for k, f := range n.Fanins {
			if mOf[f.From] != mn.Fanins[k].From {
				return fmt.Errorf("fanin %d of %s differs from the mapped network", k, n.Name)
			}
			edges = append(edges, edge{f.From, n.ID, f.Weight - mn.Fanins[k].Weight})
			adj[f.From] = append(adj[f.From], len(edges)-1)
			adj[n.ID] = append(adj[n.ID], len(edges)-1)
		}
	}
	lag := make([]int, out.NumNodes())
	known := make([]bool, out.NumNodes())
	roots := append([]int{}, out.PIs...)
	for id := range out.Nodes {
		roots = append(roots, id) // components no input reaches keep lag 0
	}
	for _, root := range roots {
		if known[root] {
			continue
		}
		known[root] = true
		for queue := []int{root}; len(queue) > 0; queue = queue[1:] {
			x := queue[0]
			for _, ei := range adj[x] {
				e := edges[ei]
				y, ly := e.v, lag[e.u]+e.d
				if x == e.v {
					y, ly = e.u, lag[e.v]-e.d
				}
				if !known[y] {
					known[y], lag[y] = true, ly
					queue = append(queue, y)
				}
			}
		}
	}
	for _, e := range edges {
		if lag[e.v]-lag[e.u] != e.d {
			return fmt.Errorf("register moves on %s→%s are not a retiming", out.Nodes[e.u].Name, out.Nodes[e.v].Name)
		}
	}
	// out starts at cycle t0, late enough that m has emitted every value
	// out's registers hold then.
	t0, depth := 1, make([]int, out.NumNodes())
	for _, n := range out.Nodes {
		for _, f := range n.Fanins {
			depth[f.From] = max(depth[f.From], f.Weight)
			t0 = max(t0, f.Weight+lag[f.From])
		}
	}
	for i, id := range out.POs {
		if lag[id] != latency[i] {
			return fmt.Errorf("output %d is delayed %d cycles, reported latency %d", i, lag[id], latency[i])
		}
		t0 = max(t0, latency[i])
	}
	if t0 >= len(vectors) {
		return fmt.Errorf("%d vectors cannot cover %d cycles of register history", len(vectors), t0)
	}

	// Run m from reset, recording every node's stream.
	sm, err := sim.New(m)
	if err != nil {
		return err
	}
	stream := make([][]bool, m.NumNodes())
	for id := range stream {
		stream[id] = make([]bool, len(vectors))
	}
	outM := make([][]bool, len(vectors))
	for t, v := range vectors {
		outM[t] = sm.Step(v)
		for id := range stream {
			stream[id][t] = sm.NodeValue(id)
		}
	}

	// Run out from cycle t0, its registers seeded from m's streams.
	so, err := sim.New(out)
	if err != nil {
		return err
	}
	for id, d := range depth {
		past := make([]bool, d)
		for w := 1; w <= d; w++ {
			t := t0 - w - lag[id]
			if t < 0 || t >= len(vectors) {
				return fmt.Errorf("register history of %s falls outside the simulated cycles", out.Nodes[id].Name)
			}
			past[w-1] = stream[mOf[id]][t]
		}
		so.SetPast(id, past)
	}
	for t := t0; t < len(vectors); t++ {
		o := so.Step(vectors[t])
		for j, lat := range latency {
			if o[j] != outM[t-lat][j] {
				return &sim.Mismatch{Cycle: t - lat, Output: j, A: outM[t-lat][j], B: o[j]}
			}
		}
	}
	return nil
}

func checkLUTs(c *netlist.Circuit) error {
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate && len(n.Fanins) > lutK {
			return fmt.Errorf("LUT %s has %d inputs (K = %d)", n.Name, len(n.Fanins), lutK)
		}
	}
	return nil
}
