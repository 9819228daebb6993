// Package retime implements Leiserson–Saxe retiming for retiming-graph
// circuits under the unit gate-delay model, plus the loop metric the paper
// optimizes: the maximum delay-to-register (MDR) ratio over all cycles.
//
// A retiming assigns an integer lag r(v) to every node; the retimed weight of
// an edge e(u,v) is w_r(e) = w(e) + r(v) - r(u). Primary inputs are pinned to
// r = 0. Primary outputs are pinned too for behaviour-preserving retiming;
// letting them lag models pipelining (each output is delayed by r(po)
// cycles, which is exactly the "insert FFs at the inputs and retime" scheme
// of the paper).
package retime

import (
	"fmt"

	"turbosyn/internal/netlist"
)

// Period returns the clock period of the circuit as-is: the maximum total
// gate delay on any register-free path.
func Period(c *netlist.Circuit) int {
	d, ok := combDelays(c, nil)
	if !ok {
		panic("retime: combinational cycle; run Check first")
	}
	max := 0
	for _, v := range d {
		if v > max {
			max = v
		}
	}
	return max
}

// combDelays computes Δ(v) = d(v) + max{Δ(u) : e(u,v) with retimed weight 0}
// for all nodes, under the optional retiming r (nil = identity). It reports
// ok=false if the zero-weight subgraph has a cycle or a retimed weight is
// negative (an illegal intermediate retiming).
func combDelays(c *netlist.Circuit, r []int) ([]int, bool) {
	n := c.NumNodes()
	delta := make([]int, n)
	indeg := make([]int, n)
	wr := func(to *netlist.Node, f netlist.Fanin) int {
		if r == nil {
			return f.Weight
		}
		return f.Weight + r[to.ID] - r[f.From]
	}
	for _, nd := range c.Nodes {
		for _, f := range nd.Fanins {
			w := wr(nd, f)
			if w < 0 {
				return nil, false
			}
			if w == 0 {
				indeg[nd.ID]++
			}
		}
	}
	queue := make([]int, 0, n)
	for id := 0; id < n; id++ {
		if indeg[id] == 0 {
			queue = append(queue, id)
		}
	}
	processed := 0
	for len(queue) > 0 {
		id := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		processed++
		nd := c.Nodes[id]
		in := 0
		for _, f := range nd.Fanins {
			if wr(nd, f) == 0 && delta[f.From] > in {
				in = delta[f.From]
			}
		}
		delta[id] = in + nd.Delay()
		for _, fo := range c.Fanouts(id) {
			to := c.Nodes[fo.To]
			if wr(to, to.Fanins[fo.Slot]) == 0 {
				indeg[fo.To]--
				if indeg[fo.To] == 0 {
					queue = append(queue, fo.To)
				}
			}
		}
	}
	return delta, processed == n
}

// RetimeForPeriod searches for a legal retiming achieving clock period phi.
// With pipeline=false the result preserves behaviour exactly (no lag on any
// primary input or output). With pipeline=true outputs may lag — extra
// registers are effectively inserted on the input side and retimed inward —
// so the achievable period is bounded only by the loops (the MDR ratio);
// use Latency to read the per-output lag.
//
// The test is the sequential arrival-time computation the paper builds on
// (Pan–Liu): l(pi) = 0 and l(v) = d(v) + max over fanin edges e(u,v) of
// l(u) - phi*w(e). The labels converge iff no loop has delay/register ratio
// above phi; phi is achievable behaviour-preservingly iff additionally
// l(po) <= phi for every output. The retiming r(v) = ceil(l(v)/phi) - 1
// realizes the period.
func RetimeForPeriod(c *netlist.Circuit, phi int, pipeline bool) ([]int, bool) {
	if phi < 1 {
		return nil, false
	}
	l, ok := arrivalLabels(c, phi)
	if !ok {
		return nil, false // a loop beats phi: infeasible even with pipelining
	}
	if !pipeline {
		for _, po := range c.POs {
			if l[po] > int64(phi) {
				return nil, false
			}
		}
	}
	n := c.NumNodes()
	r := make([]int, n)
	for id, nd := range c.Nodes {
		switch nd.Kind {
		case netlist.PI:
			r[id] = 0
		case netlist.PO:
			r[id] = int(ceilDiv(l[id], int64(phi)) - 1)
			if r[id] < 0 {
				r[id] = 0
			}
		default:
			r[id] = int(ceilDiv(l[id], int64(phi)) - 1)
		}
	}
	return r, true
}

// arrivalLabels computes the sequential arrival times for target period phi
// by longest-path relaxation. It reports ok=false when the labels diverge,
// i.e. some loop has delay/register ratio above phi.
func arrivalLabels(c *netlist.Circuit, phi int) ([]int64, bool) {
	n := c.NumNodes()
	l := make([]int64, n)
	// Nodes with fanins start far below any reachable label so that
	// regions not fed from the PIs still settle to mutually consistent
	// values; sources (PIs, constant gates) start at 0.
	low := -int64(phi)*int64(c.NumFFs()+1) - int64(n) - 1
	for id, nd := range c.Nodes {
		if len(nd.Fanins) > 0 {
			l[id] = low
		}
	}
	order := c.CombTopoOrder() // good sweep order: comb edges relax in one pass
	for iter := 0; iter <= n+1; iter++ {
		changed := false
		for _, id := range order {
			nd := c.Nodes[id]
			if len(nd.Fanins) == 0 {
				continue
			}
			best := low
			for _, f := range nd.Fanins {
				if v := l[f.From] - int64(phi)*int64(f.Weight); v > best {
					best = v
				}
			}
			best += int64(nd.Delay())
			if best > l[id] {
				l[id] = best
				changed = true
			}
		}
		if !changed {
			return l, true
		}
	}
	return nil, false
}

// ceilDiv returns ceil(a/b) for b > 0, correct for negative a.
func ceilDiv(a, b int64) int64 {
	q := a / b
	if a%b > 0 {
		q++
	}
	return q
}

// Apply returns a clone of c with the retiming applied. It validates that r
// pins the PIs, produces no negative edge weight, and (unless outputs were
// pipelined) pins the POs. PO lags must be non-negative: an output cannot
// borrow cycles from the environment.
func Apply(c *netlist.Circuit, r []int) (*netlist.Circuit, error) {
	if len(r) != c.NumNodes() {
		return nil, fmt.Errorf("retime: lag vector has %d entries for %d nodes",
			len(r), c.NumNodes())
	}
	for _, pi := range c.PIs {
		if r[pi] != 0 {
			return nil, fmt.Errorf("retime: PI %q must have lag 0, has %d",
				c.Nodes[pi].Name, r[pi])
		}
	}
	for _, po := range c.POs {
		if r[po] < 0 {
			return nil, fmt.Errorf("retime: PO %q has negative lag %d",
				c.Nodes[po].Name, r[po])
		}
	}
	d := c.Clone()
	for _, nd := range d.Nodes {
		for i := range nd.Fanins {
			f := &nd.Fanins[i]
			f.Weight += r[nd.ID] - r[f.From]
			if f.Weight < 0 {
				return nil, fmt.Errorf("retime: edge %q->%q gets weight %d",
					c.Nodes[f.From].Name, nd.Name, f.Weight)
			}
		}
	}
	d.InvalidateCaches()
	return d, nil
}

// Latency returns the extra output latency introduced by a (pipelining)
// retiming: one entry per PO, equal to that output's lag.
func Latency(c *netlist.Circuit, r []int) []int {
	out := make([]int, len(c.POs))
	for i, po := range c.POs {
		out[i] = r[po]
	}
	return out
}

// MinPeriod finds the smallest clock period achievable by pure retiming
// (outputs pinned) together with a retiming that achieves it.
func MinPeriod(c *netlist.Circuit) (int, []int) {
	hi := Period(c)
	if hi == 0 {
		return 0, make([]int, c.NumNodes())
	}
	lo := 1
	best := hi
	bestR := make([]int, c.NumNodes())
	for lo <= hi {
		mid := (lo + hi) / 2
		if r, ok := RetimeForPeriod(c, mid, false); ok {
			best, bestR = mid, r
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, bestR
}

// MinPeriodPipelined finds the smallest clock period achievable with
// retiming plus pipelining (outputs may lag). By the classic theory the
// result equals max(1, ceil(MDR)); the returned retiming realizes it.
func MinPeriodPipelined(c *netlist.Circuit) (int, []int) {
	hi := Period(c)
	if hi == 0 {
		return 0, make([]int, c.NumNodes())
	}
	lo := MaxCycleRatioCeil(c)
	if lo < 1 {
		lo = 1
	}
	best := hi
	var bestR []int
	if r, ok := RetimeForPeriod(c, hi, true); ok {
		bestR = r
	} else {
		bestR = make([]int, c.NumNodes())
	}
	for lo <= hi {
		mid := (lo + hi) / 2
		if r, ok := RetimeForPeriod(c, mid, true); ok {
			best, bestR = mid, r
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return best, bestR
}
