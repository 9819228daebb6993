package graph

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// Reverse returns the reversed adjacency lists of g: the predecessor-list
// oracle the condensation tests compare against.
func Reverse(g Adjacency) Slice {
	n := g.NumNodes()
	r := NewSlice(n)
	for u := 0; u < n; u++ {
		g.Succ(u, func(v int) { r[v] = append(r[v], u) })
	}
	return r
}

func TestReverse(t *testing.T) {
	g := NewSlice(4)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	r := Reverse(g)
	if len(r[3]) != 2 || len(r[0]) != 0 {
		t.Fatalf("reverse wrong: %v", r)
	}
	sort.Ints(r[3])
	if r[3][0] != 1 || r[3][1] != 2 {
		t.Fatalf("reverse of node 3: %v", r[3])
	}
}

func TestTopoOrderAcyclic(t *testing.T) {
	g := NewSlice(5)
	g.AddEdge(0, 1)
	g.AddEdge(0, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	order, ok := TopoOrder(g)
	if !ok || len(order) != 5 {
		t.Fatalf("expected full acyclic order, got %v ok=%v", order, ok)
	}
	pos := make([]int, 5)
	for i, u := range order {
		pos[u] = i
	}
	for u := 0; u < 5; u++ {
		g.Succ(u, func(v int) {
			if pos[u] >= pos[v] {
				t.Errorf("topo violated: %d before %d", v, u)
			}
		})
	}
}

func TestTopoOrderCyclic(t *testing.T) {
	g := NewSlice(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	order, ok := TopoOrder(g)
	if ok {
		t.Fatal("cycle not detected")
	}
	if len(order) != 1 || order[0] != 0 {
		t.Fatalf("peelable prefix should be [0], got %v", order)
	}
}

func TestSCCSimple(t *testing.T) {
	// 0 -> 1 <-> 2 -> 3, 3 -> 3 (self loop)
	g := NewSlice(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	g.AddEdge(3, 3)
	s := StronglyConnected(g)
	if s.NumComps() != 3 {
		t.Fatalf("want 3 comps, got %d: %v", s.NumComps(), s.Members)
	}
	if s.Comp[1] != s.Comp[2] {
		t.Error("1 and 2 must share a component")
	}
	if s.Comp[0] == s.Comp[1] || s.Comp[3] == s.Comp[1] {
		t.Error("0 and 3 must be separate components")
	}
	if !s.IsTrivial(g, s.Comp[0]) {
		t.Error("component of 0 is trivial")
	}
	if s.IsTrivial(g, s.Comp[3]) {
		t.Error("self loop at 3 makes its component nontrivial")
	}
	if s.IsTrivial(g, s.Comp[1]) {
		t.Error("2-cycle component is nontrivial")
	}
}

func TestSCCTopologicalOrder(t *testing.T) {
	g := NewSlice(7)
	// two cycles: {0,1}, {3,4,5}; chain 1->2->3, 5->6
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	g.AddEdge(5, 3)
	g.AddEdge(5, 6)
	s := StronglyConnected(g)
	if s.NumComps() != 4 {
		t.Fatalf("want 4 comps, got %d", s.NumComps())
	}
	pos := make([]int, s.NumComps())
	for i, c := range s.Order {
		pos[c] = i
	}
	for u := 0; u < 7; u++ {
		g.Succ(u, func(v int) {
			if s.Comp[u] != s.Comp[v] && pos[s.Comp[u]] >= pos[s.Comp[v]] {
				t.Errorf("condensation order violated on edge %d->%d", u, v)
			}
		})
	}
	// DAG edges are deduplicated.
	for c, succs := range s.DAG {
		seen := map[int]bool{}
		for _, d := range succs {
			if seen[d] {
				t.Errorf("duplicate condensation edge %d->%d", c, d)
			}
			seen[d] = true
		}
	}
}

func TestSCCLongChainNoRecursionLimit(t *testing.T) {
	// A 200k-node path would blow a recursive Tarjan's stack.
	n := 200000
	g := NewSlice(n)
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	s := StronglyConnected(g)
	if s.NumComps() != n {
		t.Fatalf("want %d comps, got %d", n, s.NumComps())
	}
}

// referenceSCC is a brute-force component computation for cross-checking:
// u and v are in one SCC iff they reach each other (transitive closure by
// Warshall's algorithm).
func referenceSCC(g Slice) []int {
	n := g.NumNodes()
	reach := make([][]bool, n)
	for u := 0; u < n; u++ {
		reach[u] = make([]bool, n)
		reach[u][u] = true
		for _, v := range g[u] {
			reach[u][v] = true
		}
	}
	for k := 0; k < n; k++ {
		for u := 0; u < n; u++ {
			if reach[u][k] {
				for v := 0; v < n; v++ {
					reach[u][v] = reach[u][v] || reach[k][v]
				}
			}
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	for u := 0; u < n; u++ {
		if comp[u] != -1 {
			continue
		}
		comp[u] = next
		for v := u + 1; v < n; v++ {
			if comp[v] == -1 && reach[u][v] && reach[v][u] {
				comp[v] = next
			}
		}
		next++
	}
	return comp
}

func TestSCCQuickAgainstReference(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(14)
		g := NewSlice(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		want := referenceSCC(g)
		got := StronglyConnected(g).Comp
		// Compare as partitions: same-component relations must match.
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if (want[u] == want[v]) != (got[u] == got[v]) {
					t.Logf("partition mismatch on %d,%d: graph %v", u, v, g)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
