package cut

import (
	"math/rand"
	"testing"
	"testing/quick"

	"turbosyn/internal/expand"
)

// This file holds the test oracle for KCut: a generic flow network with
// explicit split nodes and both halves of every arc, solved by forward
// Edmonds–Karp. It shares nothing with the kernel but the cone definition.

// inf is the capacity of an uncuttable arc.
const inf = int(1) << 30

// refArc is one directed arc; the arcs of a node form a singly linked list
// through next, in insertion order.
type refArc struct {
	to, next int
	cap      int
}

// refNet is a flow network over dense integer nodes. Arc ai^1 is the
// residual twin of arc ai.
type refNet struct {
	arcs        []refArc
	first, last []int
}

func newRefNet(n int) *refNet {
	net := &refNet{first: make([]int, n), last: make([]int, n)}
	for i := range net.first {
		net.first[i], net.last[i] = -1, -1
	}
	return net
}

func (n *refNet) addHalf(u, v, capacity int) {
	id := len(n.arcs)
	n.arcs = append(n.arcs, refArc{to: v, next: -1, cap: capacity})
	if n.last[u] < 0 {
		n.first[u] = id
	} else {
		n.arcs[n.last[u]].next = id
	}
	n.last[u] = id
}

// addArc adds arc u->v and its zero-capacity residual twin.
func (n *refNet) addArc(u, v, capacity int) {
	n.addHalf(u, v, capacity)
	n.addHalf(v, u, 0)
}

// referenceMaxFlowUpTo is forward Edmonds–Karp: every augmenting path is a
// breadth-first search from s over residual arcs, augmented by its
// bottleneck, until no path remains or the flow exceeds limit. The result
// may exceed limit by more than one.
func referenceMaxFlowUpTo(n *refNet, s, t, limit int) int {
	flow := 0
	prevArc := make([]int, len(n.first))
	for flow <= limit {
		for i := range prevArc {
			prevArc[i] = -1
		}
		queue := []int{s}
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
				if a.to == t {
					found = true
					break bfs
				}
				queue = append(queue, a.to)
			}
		}
		if !found {
			return flow
		}
		bottleneck := inf
		for v := t; v != s; v = n.arcs[prevArc[v]^1].to {
			bottleneck = min(bottleneck, n.arcs[prevArc[v]].cap)
		}
		for v := t; v != s; v = n.arcs[prevArc[v]^1].to {
			n.arcs[prevArc[v]].cap -= bottleneck
			n.arcs[prevArc[v]^1].cap += bottleneck
		}
		flow += bottleneck
	}
	return flow
}

// residualReach returns the nodes reachable from s over arcs with residual
// capacity.
func (n *refNet) residualReach(s int) []bool {
	seen := make([]bool, len(n.first))
	seen[s] = true
	stack := []int{s}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for ai := n.first[u]; ai >= 0; ai = n.arcs[ai].next {
			if a := n.arcs[ai]; a.cap > 0 && !seen[a.to] {
				seen[a.to] = true
				stack = append(stack, a.to)
			}
		}
	}
	return seen
}

// kcutNet builds the split network of x: in(i) = 2i, out(i) = 2i+1 joined
// by a unit arc for candidates and an infinite one otherwise, the source
// s = 2n feeding every frontier replica, fanin arcs out(child) -> in(i) of
// non-frontier replicas, and the root's fanins feeding the sink t = 2n+1.
func kcutNet(x *expand.Expanded) (net *refNet, s, t int) {
	n := len(x.Nodes)
	net = newRefNet(2*n + 2)
	s, t = 2*n, 2*n+1
	for i := 1; i < n; i++ {
		capi := inf
		if x.Nodes[i].Candidate {
			capi = 1
		}
		net.addArc(2*i, 2*i+1, capi)
		if x.Nodes[i].Frontier {
			net.addArc(s, 2*i, inf)
		}
	}
	for i := 0; i < n; i++ {
		if x.Nodes[i].Frontier {
			continue
		}
		for _, c := range x.Fanins[i] {
			if i == expand.Root {
				net.addArc(2*c+1, t, inf)
			} else {
				net.addArc(2*c+1, 2*i, inf)
			}
		}
	}
	return net, s, t
}

// kcutReference is the oracle for KCut: it reports the max flow capped at
// k+1 and, when that fits k, the cut of candidates whose in-half but not
// out-half the source reaches in the residual network, and the cone that
// cut encloses.
func kcutReference(x *expand.Expanded, k int) (flow int, res *Result, ok bool) {
	net, s, t := kcutNet(x)
	if flow = referenceMaxFlowUpTo(net, s, t, k); flow > k {
		return k + 1, nil, false
	}
	reach := net.residualReach(s)
	res = &Result{}
	isCut := make([]bool, len(x.Nodes))
	for i := 1; i < len(x.Nodes); i++ {
		if x.Nodes[i].Candidate && reach[2*i] && !reach[2*i+1] {
			res.Cut = append(res.Cut, i)
			isCut[i] = true
		}
	}
	seen := make([]bool, len(x.Nodes))
	seen[expand.Root] = true
	res.Cone, res.Parent = []int{expand.Root}, []int{-1}
	for qi := 0; qi < len(res.Cone); qi++ {
		for _, c := range x.Fanins[res.Cone[qi]] {
			if !seen[c] && !isCut[c] {
				seen[c] = true
				res.Cone = append(res.Cone, c)
				res.Parent = append(res.Parent, qi)
			}
		}
	}
	return flow, res, true
}

// bruteMinCut computes the min s-t cut value of a tiny network by trying
// every node subset.
func bruteMinCut(nodes int, arcs [][3]int, s, t int) int {
	best := inf
	for mask := 0; mask < 1<<uint(nodes); mask++ {
		if mask&(1<<uint(s)) == 0 || mask&(1<<uint(t)) != 0 {
			continue
		}
		sum := 0
		for _, a := range arcs {
			if mask&(1<<uint(a[0])) != 0 && mask&(1<<uint(a[1])) == 0 {
				sum += a[2]
			}
		}
		best = min(best, sum)
	}
	return best
}

// TestMaxFlowMinCutQuick checks the oracle itself: on random small
// networks its flow equals the brute-force min cut, the sink is unreachable
// afterwards, and the arcs leaving the residual source side sum to the flow.
func TestMaxFlowMinCutQuick(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := 4 + rng.Intn(5)
		var arcs [][3]int
		n := newRefNet(nodes)
		for i := rng.Intn(3 * nodes); i > 0; i-- {
			u, v := rng.Intn(nodes), rng.Intn(nodes)
			if u == v {
				continue
			}
			c := 1 + rng.Intn(3)
			arcs = append(arcs, [3]int{u, v, c})
			n.addArc(u, v, c)
		}
		s, tt := 0, nodes-1
		got := referenceMaxFlowUpTo(n, s, tt, 1<<20)
		if want := bruteMinCut(nodes, arcs, s, tt); got != want {
			t.Logf("seed %d: flow %d, brute force %d (arcs %v)", seed, got, want, arcs)
			return false
		}
		reach := n.residualReach(s)
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
		if cut != got {
			t.Logf("seed %d: cut %d != flow %d", seed, cut, got)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
