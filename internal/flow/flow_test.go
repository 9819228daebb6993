package flow

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// newNet returns a network with n nodes and no arcs.
func newNet(n int) *Net {
	net := &Net{}
	net.Reset(n)
	return net
}

func TestSimplePath(t *testing.T) {
	n := newNet(4)
	n.AddArc(0, 1, 1)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, 1)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("flow = %d, want 1", f)
	}
}

func TestParallelPaths(t *testing.T) {
	// s -> {1,2,3} -> t, three disjoint unit paths.
	n := newNet(5)
	for v := 1; v <= 3; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 4, 1)
	}
	if f := n.MaxFlowUpTo(0, 4, 10); f != 3 {
		t.Fatalf("flow = %d, want 3", f)
	}
}

func TestEarlyExit(t *testing.T) {
	n := newNet(6)
	for v := 1; v <= 4; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 5, 1)
	}
	if f := n.MaxFlowUpTo(0, 5, 2); f != 3 {
		t.Fatalf("early exit should report limit+1 = 3, got %d", f)
	}
}

func TestBottleneckWithInfArcs(t *testing.T) {
	// s -Inf-> a -1-> b -Inf-> t: max flow 1.
	n := newNet(4)
	n.AddArc(0, 1, Inf)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, Inf)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("flow = %d, want 1", f)
	}
	reach := n.ResidualReach(0)
	if !reach[0] || !reach[1] || reach[2] || reach[3] {
		t.Fatalf("residual reach wrong: %v", reach)
	}
}

func TestNeedsResidualReversal(t *testing.T) {
	// Classic case where a greedy path must be partially undone:
	//   s->a->b->t and s->b, a->t (all unit). Max flow 2 requires routing
	//   through the residual of a->b if BFS first used s->a->b->t.
	n := newNet(4)
	s, a, b, tt := 0, 1, 2, 3
	n.AddArc(s, a, 1)
	n.AddArc(a, b, 1)
	n.AddArc(b, tt, 1)
	n.AddArc(s, b, 1)
	n.AddArc(a, tt, 1)
	if f := n.MaxFlowUpTo(s, tt, 10); f != 2 {
		t.Fatalf("flow = %d, want 2", f)
	}
}

// referenceMinCut computes the min s-t cut value by brute force over all
// subsets (for tiny graphs): capacity of arcs from S-side to T-side.
func referenceMaxFlow(nodes int, arcs [][3]int, s, t int) int {
	best := 1 << 30
	for mask := 0; mask < 1<<uint(nodes); mask++ {
		if mask&(1<<uint(s)) == 0 || mask&(1<<uint(t)) != 0 {
			continue
		}
		capSum := 0
		for _, a := range arcs {
			if mask&(1<<uint(a[0])) != 0 && mask&(1<<uint(a[1])) == 0 {
				capSum += a[2]
				if capSum >= best {
					break
				}
			}
		}
		if capSum < best {
			best = capSum
		}
	}
	return best
}

func TestMaxFlowMinCutQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(5)
		nArcs := rng.Intn(3 * nodes)
		var arcs [][3]int
		n := newNet(nodes)
		for i := 0; i < nArcs; i++ {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if u == v {
				continue
			}
			c := 1 + rng.Intn(3)
			arcs = append(arcs, [3]int{u, v, c})
			n.AddArc(u, v, c)
		}
		s, tt := 0, nodes-1
		got := n.MaxFlowUpTo(s, tt, 1<<20)
		want := referenceMaxFlow(nodes, arcs, s, tt)
		if got != want {
			t.Logf("seed %d: flow %d, brute force %d (arcs %v)", seed, got, want, arcs)
			return false
		}
		// Min-cut consistency: arcs crossing the residual frontier sum to
		// the flow value.
		reach := n.ResidualReach(s)
		if reach[tt] {
			t.Logf("seed %d: sink reachable after max flow", seed)
			return false
		}
		cut := 0
		for _, a := range arcs {
			if reach[a[0]] && !reach[a[1]] {
				cut += a[2]
			}
		}
		if cut != want {
			t.Logf("seed %d: cut %d != flow %d", seed, cut, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// referenceMaxFlowUpTo is the forward Edmonds–Karp that MaxFlowUpTo
// replaced: every augmenting path is a breadth-first search from s that
// clears the whole predecessor array first. It is kept here only as an
// oracle for the sink-side search.
func referenceMaxFlowUpTo(n *Net, s, t, limit int) int {
	flow := 0
	prevArc := make([]int32, len(n.first))
	for flow <= limit {
		for i := range prevArc {
			prevArc[i] = -1
		}
		queue := []int32{int32(s)}
		prevArc[s] = -2
		found := false
	bfs:
		for qi := 0; qi < len(queue); qi++ {
			u := queue[qi]
			for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
				a := &n.arcs[ai]
				if a.cap <= 0 || prevArc[a.to] != -1 {
					continue
				}
				prevArc[a.to] = ai
				if int(a.to) == t {
					found = true
					break bfs
				}
				queue = append(queue, a.to)
			}
		}
		if !found {
			return flow
		}
		bottleneck := Inf
		for v := t; v != s; {
			ai := prevArc[v]
			if n.arcs[ai].cap < bottleneck {
				bottleneck = n.arcs[ai].cap
			}
			v = int(n.arcs[ai^1].to)
		}
		for v := t; v != s; {
			ai := prevArc[v]
			n.arcs[ai].cap -= bottleneck
			n.arcs[ai^1].cap += bottleneck
			v = int(n.arcs[ai^1].to)
		}
		flow += bottleneck
	}
	return flow
}

// splitNet builds, into n, a random network shaped like the ones cut.KCut
// builds from an expanded circuit: replica 0 is the root and feeds t,
// every other replica i is split into in(i) -> out(i) with capacity 1
// (candidate) or Inf, frontier replicas are fed by s, and fanin arcs run
// out(child) -> in(parent) with capacity Inf, children numbered above their
// parents so the replica graph is acyclic. Returns s and t.
func splitNet(rng *rand.Rand, n *Net) (s, t int) {
	reps := 2 + rng.Intn(40)
	n.Reset(2*reps + 2)
	s, t = 2*reps, 2*reps+1
	in := func(i int) int { return 2 * i }
	out := func(i int) int { return 2*i + 1 }
	for i := 1; i < reps; i++ {
		capi := Inf
		if rng.Intn(4) != 0 {
			capi = 1
		}
		n.AddArc(in(i), out(i), capi)
	}
	for i := 0; i < reps; i++ {
		if i > 0 && (i >= reps-2 || rng.Intn(3) == 0) {
			n.AddArc(s, in(i), Inf)
			continue
		}
		for f := 1 + rng.Intn(4); f > 0; f-- {
			c := i + 1 + rng.Intn(reps-i-1)
			if i == 0 {
				n.AddArc(out(c), t, Inf)
			} else {
				n.AddArc(out(c), in(i), Inf)
			}
		}
	}
	return s, t
}

// conserved reports whether every node other than s and t has zero net flow.
// Forward arcs sit at even indices; the residual capacity of each one's
// twin is the flow it carries.
func conserved(n *Net, s, t int) bool {
	net := make([]int, len(n.first))
	for ai := 0; ai < len(n.arcs); ai += 2 {
		f := n.arcs[ai+1].cap
		net[n.arcs[ai+1].to] += f
		net[n.arcs[ai].to] -= f
	}
	for v, x := range net {
		if v != s && v != t && x != 0 {
			return false
		}
	}
	return true
}

// TestSinkSideMatchesForwardReference: on cut-shaped networks, the sink-side
// search must return the forward reference's flow value for every limit.
// When the flow fits the limit, the residual source side — the cut that
// callers extract — must be the same slice, since the minimal min-cut source
// side does not depend on which maximum flow was found. After an early exit
// only the verdict is defined (which paths were pushed differs), so there
// the value is compared as limit+1 and the residual state only for flow
// conservation.
func TestSinkSideMatchesForwardReference(t *testing.T) {
	var got, want Net
	for seed := int64(0); seed < 400; seed++ {
		build := func(n *Net) (int, int) { return splitNet(rand.New(rand.NewSource(seed)), n) }
		s, tt := build(&want)
		maxFlow := referenceMaxFlowUpTo(&want, s, tt, Inf)
		for limit := 0; limit <= min(maxFlow, 16)+1; limit++ {
			build(&got)
			build(&want)
			g := got.MaxFlowUpTo(s, tt, limit)
			w := referenceMaxFlowUpTo(&want, s, tt, limit)
			if w > limit {
				w = limit + 1
			}
			if g != w {
				t.Fatalf("seed %d limit %d: flow %d, reference %d", seed, limit, g, w)
			}
			if !conserved(&got, s, tt) {
				t.Fatalf("seed %d limit %d: flow not conserved", seed, limit)
			}
			if g > limit {
				continue
			}
			gr := append([]bool(nil), got.ResidualReach(s)...)
			wr := want.ResidualReach(s)
			for v := range wr {
				if gr[v] != wr[v] {
					t.Fatalf("seed %d limit %d: node %d reachable=%v, reference %v",
						seed, limit, v, gr[v], wr[v])
				}
			}
		}
	}
}

// TestResetReuse rebuilds different networks in one Net and checks the
// verdicts match fresh networks: Reset must fully erase earlier arcs, flows
// and scratch.
func TestResetReuse(t *testing.T) {
	n := newNet(4)
	n.AddArc(0, 1, Inf)
	n.AddArc(1, 2, 1)
	n.AddArc(2, 3, Inf)
	if f := n.MaxFlowUpTo(0, 3, 10); f != 1 {
		t.Fatalf("first build: flow = %d, want 1", f)
	}
	// Smaller network, different topology.
	n.Reset(3)
	n.AddArc(0, 1, 2)
	n.AddArc(1, 2, 2)
	if f := n.MaxFlowUpTo(0, 2, 10); f != 2 {
		t.Fatalf("after Reset: flow = %d, want 2", f)
	}
	reach := n.ResidualReach(0)
	if !reach[0] || reach[1] || reach[2] {
		t.Fatalf("after Reset: residual reach wrong: %v", reach)
	}
	// Larger than the original, exercising regrowth.
	n.Reset(6)
	for v := 1; v <= 4; v++ {
		n.AddArc(0, v, 1)
		n.AddArc(v, 5, 1)
	}
	if f := n.MaxFlowUpTo(0, 5, 10); f != 4 {
		t.Fatalf("after regrow: flow = %d, want 4", f)
	}
}

// TestWarmNetZeroAlloc pins the arena property: once a Net has been through
// one build/solve cycle at a given size, repeating the cycle allocates
// nothing.
func TestWarmNetZeroAlloc(t *testing.T) {
	n := newNet(8)
	cycle := func() {
		n.Reset(8)
		for v := 1; v <= 6; v++ {
			n.AddArc(0, v, 1)
			n.AddArc(v, 7, 1)
		}
		if f := n.MaxFlowUpTo(0, 7, 4); f != 5 {
			t.Fatalf("flow = %d, want limit+1 = 5", f)
		}
		n.Reset(8)
		for v := 1; v <= 6; v++ {
			n.AddArc(0, v, 1)
			n.AddArc(v, 7, 1)
		}
		if f := n.MaxFlowUpTo(0, 7, 10); f != 6 {
			t.Fatalf("flow = %d, want 6", f)
		}
		_ = n.ResidualReach(0)
	}
	cycle() // warm up
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm Net cycle allocates %.1f objects/run, want 0", allocs)
	}
}
