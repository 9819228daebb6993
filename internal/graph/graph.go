// Package graph provides the directed-graph utilities shared by the mapping
// and retiming engines: strongly connected components, condensation with a
// topological order, and simple traversals.
//
// Graphs are addressed by dense integer node ids in [0, N). Callers supply
// adjacency through the Adjacency interface so that netlist structures can be
// traversed without copying; ready-made slice-backed implementations are
// provided for tests and for derived graphs (condensed graphs).
package graph

// Adjacency exposes a directed graph with dense integer nodes.
type Adjacency interface {
	// NumNodes returns the node count N; valid ids are 0..N-1.
	NumNodes() int
	// Succ calls fn for every successor of node u. Duplicate edges are
	// allowed and visited once per edge.
	Succ(u int, fn func(v int))
}

// Slice is an adjacency-list graph. Slice itself implements Adjacency.
type Slice [][]int

// NumNodes returns the number of nodes.
func (g Slice) NumNodes() int { return len(g) }

// Succ visits the successors of u.
func (g Slice) Succ(u int, fn func(v int)) {
	for _, v := range g[u] {
		fn(v)
	}
}

// AddEdge appends the edge u->v. The graph must already contain both nodes.
func (g Slice) AddEdge(u, v int) { g[u] = append(g[u], v) }

// NewSlice returns an empty adjacency-list graph with n nodes.
func NewSlice(n int) Slice { return make(Slice, n) }

// TopoOrder returns a topological order of g (nodes with no incoming edges
// first) and reports whether g is acyclic. When g has cycles, ok is false and
// the returned order contains only the nodes Kahn's algorithm could peel,
// i.e. the nodes not on and not downstream of any cycle.
func TopoOrder(g Adjacency) (order []int, ok bool) {
	n := g.NumNodes()
	indeg := make([]int, n)
	for u := 0; u < n; u++ {
		g.Succ(u, func(v int) { indeg[v]++ })
	}
	queue := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			queue = append(queue, u)
		}
	}
	order = make([]int, 0, n)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		order = append(order, u)
		g.Succ(u, func(v int) {
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		})
	}
	return order, len(order) == n
}
