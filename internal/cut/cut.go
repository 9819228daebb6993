// Package cut decides K-feasible cut existence on expanded circuits and
// extracts the cuts and LUT cones that the mapping generators materialize.
//
// The flow network follows FlowMap/TurboMap: every cut-candidate replica is
// split with unit capacity, non-candidates pass through uncut (infinite
// capacity), frontier replicas are fed by the source, and the root is the
// sink. A cut of at most K candidates separating the frontier from the root
// exists iff the max flow is at most K.
//
// An Arena holds the flow network and traversal scratch across calls: the
// label computation runs one cut check per node per sweep, and a warm Arena
// answers each check with zero heap allocation.
package cut

import (
	"turbosyn/internal/expand"
	"turbosyn/internal/flow"
)

// Result describes a found cut.
type Result struct {
	// Cut lists the replica indices of the node cut-set V(X, X̄).
	Cut []int
	// Cone lists the replica indices strictly inside the LUT (the root
	// included, the cut excluded), in reverse topological order from the
	// root (root first).
	Cone []int
	// Parent[i] is the position in Cone of the replica whose fanins led the
	// cone walk to Cone[i]; -1 for the root. Following it from any Cone
	// entry traces one fanin path of the cone back to the root.
	Parent []int
}

// Arena is the reusable scratch behind KCut. A zero Arena is ready to
// use. One Arena serves one goroutine; the *Result it returns aliases the
// Arena's arrays and stays valid only until the next call on the same Arena.
type Arena struct {
	net   flow.Net
	isCut []bool // indexed by replica id, cone-walk scratch
	seen  []bool
	res   Result
}

// KCut reports whether the expanded circuit admits a cut of at most k
// candidate replicas separating the frontier from the root, and returns one
// such cut of minimum size.
func (a *Arena) KCut(x *expand.Expanded, k int) (*Result, bool) {
	n := len(x.Nodes)
	// Network layout: in(i) = 2i, out(i) = 2i+1, s = 2n, t = 2n+1.
	// The root's halves are unused; arcs into the root go to t.
	net := &a.net
	net.Reset(2*n + 2)
	s, t := 2*n, 2*n+1
	in := func(i int) int { return 2 * i }
	out := func(i int) int { return 2*i + 1 }
	for i := 1; i < n; i++ {
		capi := flow.Inf
		if x.Nodes[i].Candidate {
			capi = 1
		}
		net.AddArc(in(i), out(i), capi)
		if x.Nodes[i].Frontier {
			net.AddArc(s, in(i), flow.Inf)
		}
	}
	for i := 0; i < n; i++ {
		if x.Nodes[i].Frontier {
			// Frontier replicas are supplied by the source; any fanins a
			// looser re-marking left recorded play no role in the cut.
			continue
		}
		for _, c := range x.Fanins[i] {
			if i == expand.Root {
				net.AddArc(out(c), t, flow.Inf)
			} else {
				net.AddArc(out(c), in(i), flow.Inf)
			}
		}
	}
	if got := net.MaxFlowUpTo(s, t, k); got > k {
		return nil, false
	}
	reach := net.ResidualReach(s)
	res := &a.res
	res.Cut = res.Cut[:0]
	for i := 1; i < n; i++ {
		if x.Nodes[i].Candidate && reach[in(i)] && !reach[out(i)] {
			res.Cut = append(res.Cut, i)
		}
	}
	a.cone(x)
	return res, true
}

// cone walks backward from the root, stopping at cut replicas, and fills
// res.Cone with the interior in discovery order (root first) and res.Parent
// with each entry's discoverer.
func (a *Arena) cone(x *expand.Expanded) {
	n := len(x.Nodes)
	if cap(a.isCut) < n {
		a.isCut = make([]bool, n)
		a.seen = make([]bool, n)
	}
	isCut := a.isCut[:n]
	seen := a.seen[:n]
	for i := 0; i < n; i++ {
		isCut[i] = false
		seen[i] = false
	}
	for _, c := range a.res.Cut {
		isCut[c] = true
	}
	seen[expand.Root] = true
	order := append(a.res.Cone[:0], expand.Root)
	parent := append(a.res.Parent[:0], -1)
	for qi := 0; qi < len(order); qi++ {
		for _, c := range x.Fanins[order[qi]] {
			if !seen[c] && !isCut[c] {
				seen[c] = true
				order = append(order, c)
				parent = append(parent, qi)
			}
		}
	}
	a.res.Cone, a.res.Parent = order, parent
}

// Bytes reports the approximate footprint of the Arena's retained arrays,
// for arena high-water accounting.
func (a *Arena) Bytes() int {
	return a.net.Bytes() +
		cap(a.isCut) + cap(a.seen) +
		cap(a.res.Cut)*8 + cap(a.res.Cone)*8 + cap(a.res.Parent)*8
}
