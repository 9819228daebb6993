package cut

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// rep describes one replica of a hand-built expansion.
type rep struct {
	cand, front bool
	fanins      []int
}

// handExpansion builds an expansion directly from replica descriptions;
// reps[0] is the root.
func handExpansion(reps ...rep) *expand.Expanded {
	x := &expand.Expanded{}
	for i, r := range reps {
		x.Nodes = append(x.Nodes, expand.Node{Orig: i, Candidate: r.cand, Frontier: r.front})
		x.Fanins = append(x.Fanins, r.fanins)
	}
	return x
}

// frontierCand is a candidate replica fed by the source.
var frontierCand = rep{cand: true, front: true}

// checkFlowState asserts that the arena holds a valid flow of value want
// on x: nonnegative edge flows, unit capacities on candidates, conservation
// at both halves of every replica, want units into the root, and flow lists
// that name exactly the out-edges with positive flow, each under its child
// with its parent.
func checkFlowState(t *testing.T, a *Arena, x *expand.Expanded, want int) {
	t.Helper()
	n := len(x.Nodes)
	in := make([]int32, n)         // flow on fanin edges into each replica
	out := make([]int32, n)        // flow on fanin edges out of each replica
	carrying := map[int32][2]int{} // edge -> child, parent
	for p := 0; p < n; p++ {
		for e := a.edgeStart[p]; e < a.edgeStart[p+1]; e++ {
			f, c := a.flow[e], x.Fanins[p][e-a.edgeStart[p]]
			if f < 0 {
				t.Fatalf("edge %d -> %d carries %d", c, p, f)
			}
			in[p] += f
			out[c] += f
			if f > 0 {
				carrying[e] = [2]int{c, p}
			}
		}
	}
	if in[expand.Root] != int32(want) {
		t.Fatalf("flow into the root is %d, want %d", in[expand.Root], want)
	}
	for i := 1; i < n; i++ {
		th := a.through[i]
		if th < 0 || x.Nodes[i].Candidate && th > 1 {
			t.Fatalf("replica %d: %d units through its split arc", i, th)
		}
		if !x.Nodes[i].Frontier && in[i] != th {
			t.Fatalf("replica %d: %d units in, %d through", i, in[i], th)
		}
		if out[i] != th {
			t.Fatalf("replica %d: %d units through, %d out", i, th, out[i])
		}
	}
	listed := 0
	for i := 0; i < n; i++ {
		for p := a.fhead[i]; p >= 0; p = a.fents[p].next {
			ent := a.fents[p]
			if ends, ok := carrying[ent.edge]; !ok || ends != [2]int{i, int(ent.parent)} {
				t.Fatalf("replica %d lists edge %d into %d; carrying edges: %v", i, ent.edge, ent.parent, carrying)
			}
			listed++
		}
	}
	if listed != len(carrying) {
		t.Fatalf("flow lists hold %d edges, %d carry flow", listed, len(carrying))
	}
}

// checkKCut compares the arena's max flow and KCut on x at k with the
// oracle's: flow value (capped at k+1), flow validity, verdict, Cut, Cone
// and Parent.
func checkKCut(t *testing.T, a *Arena, x *expand.Expanded, k int, what string) {
	t.Helper()
	wantFlow, want, wantOK := kcutReference(x, k)
	if got := a.maxFlow(x, k); got != wantFlow {
		t.Fatalf("%s k=%d: flow %d, reference %d", what, k, got, wantFlow)
	}
	checkFlowState(t, a, x, wantFlow)
	got, ok := a.KCut(x, k)
	if ok != wantOK {
		t.Fatalf("%s k=%d: ok=%v, reference %v", what, k, ok, wantOK)
	}
	if !ok {
		return
	}
	if !slices.Equal(got.Cut, want.Cut) || !slices.Equal(got.Cone, want.Cone) ||
		!slices.Equal(got.Parent, want.Parent) {
		t.Fatalf("%s k=%d: cut %v cone %v parent %v, reference cut %v cone %v parent %v",
			what, k, got.Cut, got.Cone, got.Parent, want.Cut, want.Cone, want.Parent)
	}
}

// checkHandBuilt checks the max flow of a hand-built expansion (inf: the
// frontier reaches the root through mandatory replicas only) and, at
// k = flow, its cut, for k = 0..5, against the values worked out by hand
// and against the oracle.
func checkHandBuilt(t *testing.T, x *expand.Expanded, flow int, cut []int) {
	t.Helper()
	a := &Arena{}
	for k := 0; k <= 5; k++ {
		checkKCut(t, a, x, k, "hand-built")
		res, ok := a.KCut(x, k)
		if ok != (flow <= k) {
			t.Fatalf("k=%d: ok=%v with max flow %d", k, ok, flow)
		}
		if ok && k == flow && !slices.Equal(res.Cut, cut) {
			t.Fatalf("k=%d: cut %v, want %v", k, res.Cut, cut)
		}
	}
}

func TestSimplePath(t *testing.T) {
	checkHandBuilt(t, handExpansion(rep{fanins: []int{1}}, frontierCand), 1, []int{1})
}

func TestParallelPaths(t *testing.T) {
	x := handExpansion(rep{fanins: []int{1, 2, 3}}, frontierCand, frontierCand, frontierCand)
	checkHandBuilt(t, x, 3, []int{1, 2, 3})
}

// TestBottleneckWithInfArcs: root <- mandatory 1 <- candidate 2 <-
// mandatory frontier 3. The unit arc of 2 is the bottleneck and the cut.
func TestBottleneckWithInfArcs(t *testing.T) {
	x := handExpansion(rep{fanins: []int{1}}, rep{fanins: []int{2}},
		rep{cand: true, fanins: []int{3}}, rep{front: true})
	checkHandBuilt(t, x, 1, []int{2})
}

// TestNeedsResidualReversal: root <- candidates 1, 2; 1 <- 3, 4 and
// 2 <- 3, where 3 and 4 are frontier candidates. The first path the search
// finds is 3 -> 1 -> root; the second must come 4 -> 1, cancel the flow on
// fanin edge 3 -> 1, and leave through 3 -> 2 -> root. Both {1, 2} and
// {3, 4} are minimum cuts; KCut returns the one nearest the frontier.
func TestNeedsResidualReversal(t *testing.T) {
	x := handExpansion(rep{fanins: []int{1, 2}},
		rep{cand: true, fanins: []int{3, 4}}, rep{cand: true, fanins: []int{3}},
		frontierCand, frontierCand)
	checkHandBuilt(t, x, 2, []int{3, 4})
}

// TestMandatoryCarriesUnits: three units pass through one mandatory
// replica.
func TestMandatoryCarriesUnits(t *testing.T) {
	x := handExpansion(rep{fanins: []int{1}}, rep{fanins: []int{2, 3, 4}},
		frontierCand, frontierCand, frontierCand)
	checkHandBuilt(t, x, 3, []int{2, 3, 4})
}

// TestFrontierRoot: nothing feeds a frontier root, so its cut is empty.
func TestFrontierRoot(t *testing.T) {
	checkHandBuilt(t, handExpansion(rep{front: true}), 0, nil)
}

// allMandatoryPath is root <- mandatory 1 <- mandatory frontier 2, next
// to a candidate frontier fanin 3: the flow has no bound.
func allMandatoryPath() *expand.Expanded {
	return handExpansion(rep{fanins: []int{3, 1}}, rep{fanins: []int{2}}, rep{front: true}, frontierCand)
}

// TestEarlyExit: once the flow exceeds the limit the search stops and
// reports limit+1, holding a valid flow of exactly that many units.
func TestEarlyExit(t *testing.T) {
	checkHandBuilt(t, allMandatoryPath(), inf, nil)
	a := &Arena{}
	four := handExpansion(rep{fanins: []int{1, 2, 3, 4}},
		frontierCand, frontierCand, frontierCand, frontierCand)
	for limit := 0; limit < 4; limit++ {
		if got := a.maxFlow(four, limit); got != limit+1 {
			t.Fatalf("four paths, limit %d: flow %d, want %d", limit, got, limit+1)
		}
		checkFlowState(t, a, four, limit+1)
	}
	if got := a.maxFlow(four, 10); got != 4 {
		t.Fatalf("four paths, limit 10: flow %d, want 4", got)
	}
	unbounded := allMandatoryPath()
	for limit := 0; limit <= cmaxTest; limit++ {
		if got := a.maxFlow(unbounded, limit); got != limit+1 {
			t.Fatalf("mandatory path, limit %d: flow %d, want %d", limit, got, limit+1)
		}
		checkFlowState(t, a, unbounded, limit+1)
	}
}

// TestResetReuse runs one arena on expansions of different sizes and
// shapes, growing and shrinking: every answer must match a fresh arena's,
// so no flow, list or mark of an earlier call may leak into a later one.
func TestResetReuse(t *testing.T) {
	xs := []*expand.Expanded{
		allMandatoryPath(),
		handExpansion(rep{fanins: []int{1, 2}},
			rep{cand: true, fanins: []int{3, 4}}, rep{cand: true, fanins: []int{3}},
			frontierCand, frontierCand),
		handExpansion(rep{fanins: []int{1}}, frontierCand),
		handExpansion(rep{fanins: []int{1}}, rep{fanins: []int{2, 3, 4}},
			frontierCand, frontierCand, frontierCand),
	}
	warm := &Arena{}
	for round := 0; round < 3; round++ {
		for i, x := range xs {
			for k := 0; k <= 4; k++ {
				checkKCut(t, warm, x, k, fmt.Sprintf("round %d expansion %d", round, i))
			}
		}
	}
}

// TestWarmNetZeroAlloc: on a warm arena the flow kernel allocates nothing
// across an early exit, a full flow with its residual reach, and a flow
// that must cancel units on an earlier path's fanin edge.
func TestWarmNetZeroAlloc(t *testing.T) {
	six := handExpansion(rep{fanins: []int{1, 2, 3, 4, 5, 6}},
		frontierCand, frontierCand, frontierCand, frontierCand, frontierCand, frontierCand)
	reversal := handExpansion(rep{fanins: []int{1, 2}},
		rep{cand: true, fanins: []int{3, 4}}, rep{cand: true, fanins: []int{3}},
		frontierCand, frontierCand)
	a := &Arena{}
	cycle := func() {
		if f := a.maxFlow(six, 4); f != 5 {
			t.Fatalf("flow = %d, want limit+1 = 5", f)
		}
		if res, ok := a.KCut(six, 10); !ok || len(res.Cut) != 6 {
			t.Fatalf("KCut(six, 10) = %v, %v; want a 6-cut", res.Cut, ok)
		}
		if res, ok := a.KCut(reversal, 2); !ok || len(res.Cut) != 2 {
			t.Fatalf("KCut(reversal, 2) = %v, %v; want a 2-cut", res.Cut, ok)
		}
	}
	cycle() // warm up
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("warm flow cycle allocates %.1f objects/run, want 0", allocs)
	}
}

// TestMarkWrap: when the mark generation wraps, marks left past the
// current length by a larger earlier expansion must be cleared too, or one
// of them can equal a later generation and hide a replica from the search.
func TestMarkWrap(t *testing.T) {
	big := handExpansion(rep{fanins: []int{1, 2}},
		rep{cand: true, fanins: []int{3, 4}}, rep{cand: true, fanins: []int{3}},
		frontierCand, frontierCand)
	small := handExpansion(rep{fanins: []int{1}}, frontierCand)
	for stale := uint32(1); stale <= 16; stale++ {
		a := &Arena{}
		a.KCut(big, 4)
		a.KCut(small, 4)
		for m, i := a.mark[:cap(a.mark)], 0; i < len(m); i++ {
			m[i] = stale
		}
		a.gen = math.MaxUint32
		checkKCut(t, a, small, 4, fmt.Sprintf("stale %d, small", stale))
		checkKCut(t, a, big, 4, fmt.Sprintf("stale %d, big", stale))
	}
}

// cmaxTest is the widest cut the label computation asks for (core's cmax).
const cmaxTest = 15

// randomCircuit builds a small K-bounded sequential circuit from next:
// combinational fanins point backward only, and registered back edges
// close loops.
func randomCircuit(next func(int) int) *netlist.Circuit {
	c := netlist.NewCircuit("kcut")
	var ids, gates []int
	for i := 1 + next(3); i > 0; i-- {
		ids = append(ids, c.AddPI(string(rune('a'+i))))
	}
	for i := 2 + next(14); i > 0; i-- {
		fanins := make([]netlist.Fanin, 1+next(4))
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[next(len(ids))], Weight: next(3) / 2}
		}
		id := c.AddGate("", logic.AndAll(len(fanins)), fanins...)
		ids = append(ids, id)
		gates = append(gates, id)
	}
	for i := next(len(gates) + 1); i > 0; i-- {
		n := c.Nodes[gates[next(len(gates))]]
		n.Fanins[next(len(n.Fanins))] = netlist.Fanin{From: gates[next(len(gates))], Weight: 1 + next(2)}
	}
	c.InvalidateCaches()
	c.AddPO("z", gates[len(gates)-1], 0)
	return c
}

// checkRandomExpansions expands a node of c (chosen by next) with random
// labels, then checks KCut against the oracle at every k up to cmaxTest on
// the expansion, on tighter re-expansions of it, and on a looser
// re-marking of the tightest.
func checkRandomExpansions(t *testing.T, a *Arena, c *netlist.Circuit, next func(int) int, what string) {
	t.Helper()
	if c.Check() != nil {
		return
	}
	labels := make([]int, c.NumNodes())
	var gates []int
	for _, nd := range c.Nodes {
		if nd.Kind == netlist.Gate {
			labels[nd.ID] = 1 + next(4)
			gates = append(gates, nd.ID)
		}
	}
	var b expand.Builder
	phi, L := 1+next(2), next(5)
	x, ok := b.Build(c, gates[next(len(gates))], labels, phi, L, expand.Options{LowDepth: next(5) - 1, MaxNodes: 400})
	for h := 0; ok; h++ {
		for k := 1; k <= cmaxTest; k++ {
			checkKCut(t, a, x, k, fmt.Sprintf("%s bound %d", what, L-h))
		}
		if h == 2 {
			x = b.Loosen(L + 1)
			for k := 1; k <= cmaxTest; k++ {
				checkKCut(t, a, x, k, fmt.Sprintf("%s loosened to %d", what, L+1))
			}
			break
		}
		x, ok = b.Tighten(L - h - 1)
	}
}

// TestKCutMatchesReference: on random expansions, including regions
// tightened and loosened in place, one warm arena must agree with the
// oracle on the flow value, the verdict, the cut, the cone and the parents
// at every k up to cmaxTest.
func TestKCutMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	a := &Arena{}
	trials := 300
	if testing.Short() {
		trials = 100
	}
	for trial := 0; trial < trials; trial++ {
		checkRandomExpansions(t, a, randomCircuit(rng.Intn), rng.Intn, fmt.Sprintf("trial %d", trial))
	}
}

// FuzzKCut drives the oracle comparison from arbitrary bytes: they shape
// the circuit and choose the root, labels, phi, bound and LowDepth.
func FuzzKCut(f *testing.F) {
	f.Add([]byte{1, 6, 2, 0, 1, 1, 3, 0, 2, 2, 1, 4, 4, 3, 0, 3, 1, 2, 5, 0, 1, 3, 2, 1, 0, 4})
	f.Add([]byte("0000000000021200020002120002"))
	f.Add([]byte("\x02\x0c\x03\x01\x02\x00\x03\x01\x01\x02\x02\x00\x01\x03\x02\x01\x00\x04\x02\x01\x03\x03\x02"))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			v := int(data[0]) % n
			data = data[1:]
			return v
		}
		checkRandomExpansions(t, &Arena{}, randomCircuit(next), next, "fuzz")
	})
}
