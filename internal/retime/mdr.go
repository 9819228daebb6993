package retime

import (
	"math"

	"turbosyn/internal/graph"
	"turbosyn/internal/netlist"
)

// The MDR (maximum delay-to-register) ratio of a sequential circuit is
// max over directed cycles C of (sum of gate delays on C) / (sum of edge
// weights on C). With retiming plus pipelining the clock period is bounded
// below by exactly this quantity (Leiserson–Saxe, Papaefthymiou), which is
// why the paper minimizes the MDR ratio of the mapped network.
//
// All tests reduce to: "does some cycle have b*Σd - a*Σw > 0?", i.e.
// "is MDR > a/b?", answered by longest-path Bellman–Ford within each
// nontrivial strongly connected component.

// sccContext caches the SCC decomposition for repeated ratio tests.
type sccContext struct {
	c    *netlist.Circuit
	sccs *graph.SCCs
	// nontrivial components and their members
	comps [][]int
}

func newSCCContext(c *netlist.Circuit) *sccContext {
	s := graph.StronglyConnected(c.Adj())
	ctx := &sccContext{c: c, sccs: s}
	for comp := range s.Members {
		if !s.IsTrivial(c.Adj(), comp) {
			ctx.comps = append(ctx.comps, s.Members[comp])
		}
	}
	return ctx
}

// ratioAbove reports whether some cycle has b*Σd - a*Σw > 0 (MDR > a/b).
func (ctx *sccContext) ratioAbove(a, b int64) bool {
	for _, members := range ctx.comps {
		if ctx.positiveCycleIn(members, a, b) {
			return true
		}
	}
	return false
}

// positiveCycleIn runs longest-path relaxation restricted to the given
// component; divergence after len(members) sweeps means a positive cycle.
func (ctx *sccContext) positiveCycleIn(members []int, a, b int64) bool {
	comp := ctx.sccs.Comp[members[0]]
	dist := make(map[int]int64, len(members))
	for _, id := range members {
		dist[id] = 0
	}
	for iter := 0; iter <= len(members); iter++ {
		changed := false
		for _, id := range members {
			nd := ctx.c.Nodes[id]
			dv := dist[id]
			for _, f := range nd.Fanins {
				if ctx.sccs.Comp[f.From] != comp {
					continue
				}
				cost := b*int64(nd.Delay()) - a*int64(f.Weight)
				if nd2 := dist[f.From] + cost; nd2 > dv {
					dv = nd2
					changed = true
				}
			}
			dist[id] = dv
		}
		if !changed {
			return false
		}
	}
	return true
}

// hasCriticalCycle reports whether some cycle has exactly b*Σd - a*Σw == 0,
// assuming no cycle is positive at a/b. Together with ratioAbove this
// verifies MDR == a/b exactly.
func (ctx *sccContext) hasCriticalCycle(a, b int64) bool {
	for _, members := range ctx.comps {
		comp := ctx.sccs.Comp[members[0]]
		// Converge longest paths (no positive cycle, so this terminates).
		dist := make(map[int]int64, len(members))
		for _, id := range members {
			dist[id] = 0
		}
		for iter := 0; iter < len(members)+1; iter++ {
			changed := false
			for _, id := range members {
				nd := ctx.c.Nodes[id]
				for _, f := range nd.Fanins {
					if ctx.sccs.Comp[f.From] != comp {
						continue
					}
					cost := b*int64(nd.Delay()) - a*int64(f.Weight)
					if d := dist[f.From] + cost; d > dist[id] {
						dist[id] = d
						changed = true
					}
				}
			}
			if !changed {
				break
			}
		}
		// Tight subgraph: edges with dist[u] + cost == dist[v]. A cycle of
		// tight edges has total cost 0.
		idx := make(map[int]int, len(members))
		for i, id := range members {
			idx[id] = i
		}
		tight := graph.NewSlice(len(members))
		for _, id := range members {
			nd := ctx.c.Nodes[id]
			for _, f := range nd.Fanins {
				if ctx.sccs.Comp[f.From] != comp {
					continue
				}
				cost := b*int64(nd.Delay()) - a*int64(f.Weight)
				if dist[f.From]+cost == dist[id] {
					tight.AddEdge(idx[f.From], idx[id])
				}
			}
		}
		if _, acyclic := graph.TopoOrder(tight); !acyclic {
			return true
		}
	}
	return false
}

func totalDelay(c *netlist.Circuit) int {
	d := 0
	for _, nd := range c.Nodes {
		d += nd.Delay()
	}
	if d == 0 {
		d = 1
	}
	return d
}

// MaxCycleRatio returns the exact MDR ratio as a reduced fraction num/den.
// Acyclic circuits return (0, 1).
func MaxCycleRatio(c *netlist.Circuit) (num, den int64) {
	ctx := newSCCContext(c)
	if len(ctx.comps) == 0 {
		return 0, 1
	}
	maxDen := int64(0)
	for _, members := range ctx.comps {
		comp := ctx.sccs.Comp[members[0]]
		for _, id := range members {
			for _, f := range ctx.c.Nodes[id].Fanins {
				if ctx.sccs.Comp[f.From] == comp {
					maxDen += int64(f.Weight)
				}
			}
		}
	}
	if maxDen < 1 {
		maxDen = 1
	}
	maxNum := int64(totalDelay(c))

	// Isolate MDR by bisection, then identify the unique fraction with
	// denominator <= maxDen inside the bracket and verify it exactly.
	lo, hi := 0.0, float64(maxNum)
	for iter := 0; iter < 80 && hi-lo > 0.25/float64(maxDen*maxDen); iter++ {
		mid := (lo + hi) / 2
		a, b := rationalize(mid, maxDen)
		var above bool
		if float64(a)/float64(b) < lo || float64(a)/float64(b) > hi {
			// Rounding left the bracket; fall back to a plain comparison
			// with the midpoint as an over-precise fraction.
			a, b = int64(math.Round(mid*float64(maxDen))), maxDen
		}
		above = ctx.ratioAbove(a, b)
		if above {
			lo = float64(a) / float64(b)
		} else {
			hi = float64(a) / float64(b)
		}
		if lo == hi {
			break
		}
	}
	// Candidate fractions: best rational approximations around [lo, hi].
	cands := candidateFractions(lo, hi, maxDen)
	for _, f := range cands {
		if f.b <= 0 || f.a < 0 {
			continue
		}
		if !ctx.ratioAbove(f.a, f.b) && ctx.hasCriticalCycle(f.a, f.b) {
			g := gcd(f.a, f.b)
			return f.a / g, f.b / g
		}
	}
	// Exact fallback: Stern–Brocot walk (always terminates; slow path).
	return ctx.sternBrocot(maxNum, maxDen)
}

type frac struct{ a, b int64 }

// rationalize converts x to a fraction with denominator <= maxDen using a
// continued-fraction best approximation.
func rationalize(x float64, maxDen int64) (int64, int64) {
	if x <= 0 {
		return 0, 1
	}
	var h0, h1, k0, k1 int64 = 0, 1, 1, 0
	v := x
	for i := 0; i < 64; i++ {
		ai := int64(math.Floor(v))
		if k1*ai+k0 > maxDen {
			break
		}
		h0, h1 = h1, ai*h1+h0
		k0, k1 = k1, ai*k1+k0
		fracPart := v - float64(ai)
		if fracPart < 1e-12 {
			break
		}
		v = 1 / fracPart
	}
	if k1 == 0 {
		return int64(math.Round(x)), 1
	}
	return h1, k1
}

// candidateFractions returns fractions with denominator <= maxDen near the
// bracket [lo, hi], most likely first.
func candidateFractions(lo, hi float64, maxDen int64) []frac {
	var out []frac
	seen := map[frac]bool{}
	add := func(a, b int64) {
		if b <= 0 {
			return
		}
		g := gcd(a, b)
		if g > 0 {
			a, b = a/g, b/g
		}
		f := frac{a, b}
		if !seen[f] {
			seen[f] = true
			out = append(out, f)
		}
	}
	for _, x := range []float64{hi, (lo + hi) / 2, lo} {
		a, b := rationalize(x, maxDen)
		add(a, b)
		add(a+1, b)
		if a > 0 {
			add(a-1, b)
		}
	}
	// Also every denominator up to a small bound (catches tiny ratios the
	// float path might straddle).
	for b := int64(1); b <= maxDen && b <= 64; b++ {
		a := int64(math.Round(hi * float64(b)))
		add(a, b)
		add(a+1, b)
		if a > 0 {
			add(a-1, b)
		}
	}
	return out
}

// sternBrocot finds the exact MDR with one ratio test per step: an integer
// binary search isolates floor(MDR), then a mediant walk pins the fraction.
// The walk maintains Stern–Brocot neighbours la/lb < MDR <= ha/hb, so once
// the mediant's denominator exceeds maxDen no eligible fraction lies strictly
// inside the bracket and MDR = ha/hb.
func (ctx *sccContext) sternBrocot(maxNum, maxDen int64) (int64, int64) {
	// floor: largest F with MDR > F, i.e. MDR in (F, F+1].
	lo, hi := int64(0), maxNum
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if ctx.ratioAbove(mid, 1) {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	la, lb := lo, int64(1)
	ha, hb := lo+1, int64(1)
	if !ctx.ratioAbove(la, lb) {
		// MDR <= floor candidate: MDR is exactly an integer boundary case.
		g := gcd(la, lb)
		return la / g, lb / g
	}
	for lb+hb <= maxDen {
		ma, mb := la+ha, lb+hb
		if ctx.ratioAbove(ma, mb) {
			la, lb = ma, mb
		} else {
			ha, hb = ma, mb
		}
	}
	g := gcd(ha, hb)
	return ha / g, hb / g
}

func gcd(a, b int64) int64 {
	if a < 0 {
		a = -a
	}
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}
