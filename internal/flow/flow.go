// Package flow implements the small max-flow engine behind all K-feasible
// cut computations: unit/infinite arc capacities, shortest augmenting paths
// searched breadth-first backward from the sink, an early exit once the flow
// exceeds the cut budget K, and residual reachability from the source for
// min-cut extraction.
//
// Vertex capacities (the node cut-sets of FlowMap/TurboMap) are modelled by
// the callers via node splitting.
//
// A Net is resettable: Reset reuses the arc pool, adjacency lists and search
// scratch of earlier builds, so callers sitting in a hot loop (the label
// computation checks one cut per node per sweep) construct and solve
// networks with zero heap allocation once the backing arrays have grown to
// the workload's high-water mark.
package flow

// Inf is the capacity of an uncuttable arc.
const Inf = int(1) << 30

// arc is one directed arc. Arcs of a node form a singly linked list through
// next, threaded in insertion order (first/last in Net) so traversal order —
// and therefore search tie-breaking — is identical to an adjacency-slice
// implementation.
type arc struct {
	to   int32
	next int32 // next arc of the same tail node, -1 at the end
	cap  int
}

// Net is a flow network over dense integer nodes.
type Net struct {
	arcs  []arc
	first []int32 // head of each node's arc list, -1 when empty
	last  []int32 // tail of each node's arc list (insertion order)

	// Augmenting-path search scratch, reused across MaxFlowUpTo calls.
	nextArc []int32
	queue   []int32
	// Residual-reachability scratch, reused across ResidualReach calls.
	reach []bool
}

// Reset reinitializes the network to n nodes and no arcs, retaining every
// backing array. After the first few builds at a given size, Reset and the
// subsequent AddArc/MaxFlowUpTo/ResidualReach cycle allocate nothing.
func (n *Net) Reset(num int) {
	n.arcs = n.arcs[:0]
	if cap(n.first) < num {
		n.first = make([]int32, num)
		n.last = make([]int32, num)
	}
	n.first = n.first[:num]
	n.last = n.last[:num]
	for i := range n.first {
		n.first[i] = -1
		n.last[i] = -1
	}
}

// addHalf appends one directed arc u->v and links it at the tail of u's arc
// list, preserving insertion order under traversal.
func (n *Net) addHalf(u, v, capacity int) {
	id := int32(len(n.arcs))
	n.arcs = append(n.arcs, arc{to: int32(v), next: -1, cap: capacity})
	if n.last[u] < 0 {
		n.first[u] = id
	} else {
		n.arcs[n.last[u]].next = id
	}
	n.last[u] = id
}

// AddArc adds a directed arc u->v with the given capacity (its residual
// reverse arc is created automatically).
func (n *Net) AddArc(u, v, cap int) {
	n.addHalf(u, v, cap)
	n.addHalf(v, u, 0)
}

// MaxFlowUpTo pushes augmenting paths from s to t until either no path
// remains (the returned flow is the max flow) or the flow exceeds limit (the
// return value is limit+1 and the computation stops early; the residual
// state is still consistent).
//
// Each augmenting path is found by a breadth-first search backward from t
// over residual arcs, stopping at the first node that reaches s. In the cut
// networks s feeds every frontier replica while t is the single root, so the
// search stays near the root instead of sweeping the whole network. Which
// maximum flow is found does not matter to ResidualReach: the nodes
// reachable from s in the residual network form the minimal min-cut source
// side, which is the same for every maximum flow.
func (n *Net) MaxFlowUpTo(s, t, limit int) int {
	if cap(n.nextArc) < len(n.first) {
		// Entries are -1 between searches: each search resets the ones it
		// marked, so only a fresh array needs a full fill.
		n.nextArc = make([]int32, len(n.first))
		for i := range n.nextArc {
			n.nextArc[i] = -1
		}
		n.queue = make([]int32, 0, len(n.first))
	}
	// nextArc[v]: the residual arc leaving v on a path to t (-2 at t, -1
	// when v is unmarked).
	nextArc := n.nextArc[:len(n.first)]
	flow := 0
	for flow <= limit {
		queue := append(n.queue[:0], int32(t))
		nextArc[t] = -2
		found := false
	search:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			// Arc ai leaves u, so its twin ai^1 enters u from arcs[ai].to.
			for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
				v := n.arcs[ai].to
				if n.arcs[ai^1].cap <= 0 || nextArc[v] != -1 {
					continue
				}
				nextArc[v] = ai ^ 1
				if int(v) == s {
					found = true
					break search
				}
				queue = append(queue, v)
			}
		}
		if found {
			// Augment by the path bottleneck (arcs are unit or Inf; the
			// bottleneck is still computed generally).
			bottleneck := Inf
			for v := s; v != t; v = int(n.arcs[nextArc[v]].to) {
				if c := n.arcs[nextArc[v]].cap; c < bottleneck {
					bottleneck = c
				}
			}
			for v := s; v != t; v = int(n.arcs[nextArc[v]].to) {
				ai := nextArc[v]
				n.arcs[ai].cap -= bottleneck
				n.arcs[ai^1].cap += bottleneck
			}
			flow += bottleneck
			nextArc[s] = -1
		}
		for _, v := range queue {
			nextArc[v] = -1
		}
		n.queue = queue[:0]
		if !found {
			return flow
		}
	}
	return limit + 1
}

// Bytes reports the approximate footprint of the network's retained arrays,
// for arena high-water accounting.
func (n *Net) Bytes() int {
	const arcSize = 16 // arc: two int32 + one int
	return cap(n.arcs)*arcSize +
		(cap(n.first)+cap(n.last)+cap(n.nextArc)+cap(n.queue))*4 +
		cap(n.reach)
}

// ResidualReach returns the set of nodes reachable from s in the residual
// network. After a completed MaxFlowUpTo (flow <= limit), the arcs crossing
// from the reachable to the unreachable side form a min cut.
//
// The returned slice is scratch owned by the Net: it stays valid until the
// next ResidualReach or Reset on the same network.
func (n *Net) ResidualReach(s int) []bool {
	if cap(n.reach) < len(n.first) {
		n.reach = make([]bool, len(n.first))
	}
	seen := n.reach[:len(n.first)]
	for i := range seen {
		seen[i] = false
	}
	seen[s] = true
	queue := n.queue[:0]
	queue = append(queue, int32(s))
	for len(queue) > 0 {
		u := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
			a := &n.arcs[ai]
			if a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				queue = append(queue, a.to)
			}
		}
	}
	n.queue = queue[:0]
	return seen
}
