// Package cut decides K-feasible cut existence on expanded circuits and
// extracts the cuts and LUT cones that the mapping generators materialize.
//
// The flow network follows FlowMap/TurboMap: every cut-candidate replica is
// split into an in-half and an out-half joined by an arc of capacity 1,
// non-candidates pass through uncut (infinite capacity), frontier replicas
// are fed by the source, and the root is the sink. A cut of at most K
// candidates separating the frontier from the root exists iff the max flow
// is at most K.
//
// The network is never materialized. KCut runs the max flow on the
// expanded circuit itself: the halves of a replica are implicit, the flow on
// each fanin edge of a non-frontier replica lives in one flat per-call edge
// list, and each replica keeps a short list of its out-edges that carry
// flow, which are the reverse residual arcs. Augmenting paths are found by
// a depth-first search backward from the root, one unit at a time, and the
// search stops once the flow exceeds K.
//
// Which maximum flow the search finds does not matter. The verdict depends
// only on the flow value, and the extracted cut is read off the replicas
// reachable from the source in the residual network. That reachable set is
// the minimal source side of a minimum cut: it lies inside the source side
// of every minimum cut, and it is the same set for every maximum flow. So
// any augmenting order yields the same cut, and the same cone.
//
// An Arena holds the flow state and traversal scratch across calls: the
// label computation runs one cut check per node per sweep, and a warm Arena
// answers each check with zero heap allocation.
package cut

import (
	"slices"

	"turbosyn/internal/expand"
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
//
// The split halves of replica i are numbered in(i) = 2i and out(i) = 2i+1.
// The root's in-half is the sink.
type Arena struct {
	// Edge e in [edgeStart[p], edgeStart[p+1]) is the fanin edge from
	// x.Fanins[p][e-edgeStart[p]] into non-frontier replica p; flow[e] is
	// the flow it carries.
	edgeStart []int32
	flow      []int32
	// through[i] is the flow through replica i's split arc; fhead[i] heads
	// the list (in fents) of i's out-edges with positive flow.
	through []int32
	fhead   []int32
	fents   []flowEnt
	// mark[h] == gen marks split half h as visited by the current search.
	mark  []uint32
	gen   uint32
	stack []frame
	// Residual reach from the source: the fanout CSR of the edge list
	// (the parents of replica i are foPar[foStart[i]:foStart[i+1]]) and
	// the worklist.
	foStart []int32
	foPar   []int32
	queue   []int32

	isCut []bool // indexed by replica id, cone-walk scratch
	seen  []bool
	res   Result
}

// flowEnt is one entry of a replica's list of flow-carrying out-edges.
type flowEnt struct {
	edge, parent, next int32
}

// frame is one step of the backward augmenting-path search: split half
// node, its cursor over the residual arcs entering it, and via, the arc the
// search took from the previous frame's half to reach it: a fanin edge id,
// or -1 for the replica's split arc. Whether the arc is used forward or in
// reverse follows from which half node is.
type frame struct {
	node, cur, via int32
}

// KCut reports whether the expanded circuit admits a cut of at most k
// candidate replicas separating the frontier from the root, and returns one
// such cut of minimum size.
func (a *Arena) KCut(x *expand.Expanded, k int) (*Result, bool) {
	if a.maxFlow(x, k) > k {
		return nil, false
	}
	a.residualReach(x)
	res := &a.res
	res.Cut = res.Cut[:0]
	for i := 1; i < len(x.Nodes); i++ {
		if x.Nodes[i].Candidate && a.mark[2*i] == a.gen && a.mark[2*i+1] != a.gen {
			res.Cut = append(res.Cut, i)
		}
	}
	a.cone(x)
	return res, true
}

// maxFlow computes the max flow from the frontier to the root, or stops
// and returns limit+1 once the flow exceeds limit.
func (a *Arena) maxFlow(x *expand.Expanded, limit int) int {
	n := len(x.Nodes)
	a.edgeStart = grow(a.edgeStart, n+1)
	edges := int32(0)
	for p := 0; p < n; p++ {
		a.edgeStart[p] = edges
		if !x.Nodes[p].Frontier {
			edges += int32(len(x.Fanins[p]))
		}
	}
	a.edgeStart[n] = edges
	a.flow = grow(a.flow, int(edges))
	clear(a.flow)
	a.through = grow(a.through, n)
	clear(a.through)
	a.fhead = grow(a.fhead, n)
	for i := range a.fhead {
		a.fhead[i] = -1
	}
	a.fents = a.fents[:0]
	// Marks left by earlier calls are all below the next generation.
	a.mark = grow(a.mark, 2*n)
	if x.Nodes[expand.Root].Frontier {
		return 0 // nothing feeds the sink
	}
	flow := 0
	for flow <= limit {
		if !a.augment(x) {
			return flow
		}
		flow++
	}
	return limit + 1
}

// nextGen starts a new traversal over the split halves' marks.
func (a *Arena) nextGen() {
	if a.gen++; a.gen == 0 {
		// The stamps wrapped: a mark of an old traversal, also one past
		// the current length, could equal gen.
		clear(a.mark[:cap(a.mark)])
		a.gen = 1
	}
}

// augment searches depth-first backward from the sink for a residual path
// to the source and pushes one unit of flow along it; it reports whether a
// path was found.
func (a *Arena) augment(x *expand.Expanded) bool {
	a.nextGen()
	mark, gen := a.mark, a.gen
	mark[2*expand.Root] = gen
	stack := append(a.stack[:0], frame{node: 2 * expand.Root, via: -1})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		i := f.node >> 1
		next, via := int32(-1), int32(-1)
		if f.node&1 == 0 {
			// in(i): fed by the source when i is on the frontier, by the
			// out-halves of its fanins, and by out(i) in reverse while
			// the split arc carries flow.
			start := a.edgeStart[i]
			switch deg := a.edgeStart[i+1] - start; {
			case f.cur == 0 && x.Nodes[i].Frontier:
				a.push(stack)
				a.stack = stack
				return true
			case f.cur < deg:
				next, via = 2*int32(x.Fanins[i][f.cur])+1, start+f.cur
			case f.cur == deg && a.through[i] > 0:
				next = 2*i + 1
			case f.cur > deg:
				stack = stack[:len(stack)-1]
				continue
			}
			f.cur++
		} else {
			// out(i): fed by in(i) while the split arc has capacity left,
			// and in reverse by the in-half of the parent of each out-edge
			// with flow. cur is 0 before the split arc, then the next flow
			// entry + 2, so 1 ends the list.
			switch f.cur {
			case 0:
				f.cur = a.fhead[i] + 2
				if !x.Nodes[i].Candidate || a.through[i] == 0 {
					next = 2 * i
				}
			case 1:
				stack = stack[:len(stack)-1]
				continue
			default:
				e := &a.fents[f.cur-2]
				f.cur = e.next + 2
				next, via = 2*e.parent, e.edge
			}
		}
		if next >= 0 && mark[next] != gen {
			mark[next] = gen
			stack = append(stack, frame{node: next, via: via})
		}
	}
	a.stack = stack
	return false
}

// push adds one unit of flow along the path on the search stack: from the
// source into the top frame's half, then frame by frame down to the sink.
func (a *Arena) push(stack []frame) {
	for j := 1; j < len(stack); j++ {
		v, u := stack[j], stack[j-1].node
		i := v.node >> 1
		switch {
		case v.via < 0 && v.node&1 == 0:
			a.through[i]++ // in(i) -> out(i)
		case v.via < 0:
			a.through[i]-- // cancels in(i) -> out(i)
		case v.node&1 == 1:
			// out(i) -> in(parent) along fanin edge v.via.
			if a.flow[v.via]++; a.flow[v.via] == 1 {
				a.fents = append(a.fents, flowEnt{edge: v.via, parent: u >> 1, next: a.fhead[i]})
				a.fhead[i] = int32(len(a.fents) - 1)
			}
		default:
			// Cancels out(child) -> in(i) along fanin edge v.via.
			if a.flow[v.via]--; a.flow[v.via] == 0 {
				a.unlink(u>>1, v.via)
			}
		}
	}
}

// unlink drops edge from replica i's list of flow-carrying out-edges.
func (a *Arena) unlink(i, edge int32) {
	for p := &a.fhead[i]; *p >= 0; p = &a.fents[*p].next {
		if a.fents[*p].edge == edge {
			*p = a.fents[*p].next
			return
		}
	}
}

// residualReach marks (mark[h] == gen) every split half reachable from the
// source in the residual network of a maximum flow. The out-half of a
// replica reaches the in-halves of all its fanouts, so this pass first
// builds the fanout CSR of the edge list.
func (a *Arena) residualReach(x *expand.Expanded) {
	n := len(x.Nodes)
	// Count each replica's fanouts, turn the counts into range ends, then
	// fill every range back to front.
	a.foStart = grow(a.foStart, n+1)
	clear(a.foStart)
	for p := 0; p < n; p++ {
		if !x.Nodes[p].Frontier {
			for _, c := range x.Fanins[p] {
				a.foStart[c]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		a.foStart[i] += a.foStart[i-1]
	}
	a.foPar = grow(a.foPar, int(a.foStart[n]))
	for p := 0; p < n; p++ {
		if x.Nodes[p].Frontier {
			continue
		}
		for _, c := range x.Fanins[p] {
			a.foStart[c]--
			a.foPar[a.foStart[c]] = int32(p)
		}
	}

	a.nextGen()
	mark, gen := a.mark, a.gen
	q := a.queue[:0]
	visit := func(h int32) {
		if mark[h] != gen {
			mark[h] = gen
			q = append(q, h)
		}
	}
	for i := 1; i < n; i++ {
		if x.Nodes[i].Frontier {
			visit(2 * int32(i))
		}
	}
	for len(q) > 0 {
		h := q[len(q)-1]
		q = q[:len(q)-1]
		i := h >> 1
		if h&1 == 0 {
			if !x.Nodes[i].Candidate || a.through[i] == 0 {
				visit(h + 1)
			}
			start := a.edgeStart[i]
			for e := start; e < a.edgeStart[i+1]; e++ {
				if a.flow[e] > 0 {
					visit(2*int32(x.Fanins[i][e-start]) + 1)
				}
			}
		} else {
			if a.through[i] > 0 {
				visit(h - 1)
			}
			for _, p := range a.foPar[a.foStart[i]:a.foStart[i+1]] {
				visit(2 * p)
			}
		}
	}
	a.queue = q
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
	const flowEntSize, frameSize = 12, 12
	return (cap(a.edgeStart)+cap(a.flow)+cap(a.through)+cap(a.fhead)+
		cap(a.mark)+cap(a.foStart)+cap(a.foPar)+cap(a.queue))*4 +
		cap(a.fents)*flowEntSize + cap(a.stack)*frameSize +
		cap(a.isCut) + cap(a.seen) +
		cap(a.res.Cut)*8 + cap(a.res.Cone)*8 + cap(a.res.Parent)*8
}

// grow returns s resized to n entries. It reallocates only when the
// capacity is short, and then with append's headroom, so a warming arena
// reallocates a logarithmic number of times. Entries keep old values or
// are zero.
func grow[T int32 | uint32](s []T, n int) []T {
	return slices.Grow(s[:0], n)[:n]
}
