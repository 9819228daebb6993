package expand

import (
	"math"
	"math/rand"
	"testing"

	"turbosyn/internal/netlist"
)

// pickTarget returns the last multi-fanin gate of c, or -1.
func pickTarget(c *netlist.Circuit) int {
	v := -1
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate && len(n.Fanins) > 0 {
			v = n.ID
		}
	}
	return v
}

func randomLabels(rng *rand.Rand, c *netlist.Circuit) []int {
	labels := make([]int, c.NumNodes())
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			labels[n.ID] = 1 + rng.Intn(3)
		}
	}
	return labels
}

// sameExpansion asserts the two expansions describe the same replica set
// with identical candidate/frontier marks and, per replica, identical fanin
// replica sequences (compared as (orig, w) pairs, since replica numbering
// may differ).
func sameExpansion(t *testing.T, tag string, got, want *Expanded) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%s: %d replicas, want %d", tag, len(got.Nodes), len(want.Nodes))
	}
	for i, wn := range want.Nodes {
		j := got.Index(wn.Orig, wn.W)
		if j < 0 {
			t.Fatalf("%s: replica (%d,%d) missing", tag, wn.Orig, wn.W)
		}
		gn := got.Nodes[j]
		if gn.Candidate != wn.Candidate || gn.Frontier != wn.Frontier {
			t.Fatalf("%s: replica (%d,%d): candidate=%v frontier=%v, want %v/%v",
				tag, wn.Orig, wn.W, gn.Candidate, gn.Frontier, wn.Candidate, wn.Frontier)
		}
		gf, wf := got.Fanins[j], want.Fanins[i]
		if len(gf) != len(wf) {
			t.Fatalf("%s: replica (%d,%d): %d fanins, want %d",
				tag, wn.Orig, wn.W, len(gf), len(wf))
		}
		for k := range wf {
			gc, wc := got.Nodes[gf[k]], want.Nodes[wf[k]]
			if gc.Orig != wc.Orig || gc.W != wc.W {
				t.Fatalf("%s: replica (%d,%d) fanin %d: (%d,%d), want (%d,%d)",
					tag, wn.Orig, wn.W, k, gc.Orig, gc.W, wc.Orig, wc.W)
			}
		}
	}
}

// TestBuilderMatchesOneShot: a reused Builder must reproduce a fresh
// Builder's one-shot Build exactly, including across circuits of different
// shapes and repeated builds on the same Builder.
func TestBuilderMatchesOneShot(t *testing.T) {
	b := &Builder{}
	opts := Options{LowDepth: 2, MaxNodes: 4000}
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLoopy(rng, 6+rng.Intn(18))
		if c.Check() != nil {
			continue
		}
		v := pickTarget(c)
		if v < 0 {
			continue
		}
		labels := randomLabels(rng, c)
		for L := 0; L <= 3; L++ {
			want, okW := (&Builder{}).Build(c, v, labels, 1, L, opts)
			got, okG := b.Build(c, v, labels, 1, L, opts)
			if okW != okG {
				t.Fatalf("seed %d L=%d: builder ok=%v, one-shot ok=%v", seed, L, okG, okW)
			}
			if !okW {
				continue
			}
			sameExpansion(t, "reuse", got, want)
			// Replica numbering must also match: the Builder runs the same
			// worklist in the same order, only the storage is recycled.
			for i := range want.Nodes {
				if got.Nodes[i] != want.Nodes[i] {
					t.Fatalf("seed %d L=%d: node %d differs: %+v vs %+v",
						seed, L, i, got.Nodes[i], want.Nodes[i])
				}
			}
		}
	}
}

// sameNumbering asserts got is want replica for replica: same nodes in the
// same order, same fanin ids, and an index that finds every replica at its
// own id.
func sameNumbering(t *testing.T, tag string, got, want *Expanded) {
	t.Helper()
	sameExpansion(t, tag, got, want)
	for i, wn := range want.Nodes {
		if got.Nodes[i] != wn {
			t.Fatalf("%s: node %d is %+v, want %+v", tag, i, got.Nodes[i], wn)
		}
		if j := got.Index(wn.Orig, wn.W); j != i {
			t.Fatalf("%s: Index(%d,%d) = %d, want %d", tag, wn.Orig, wn.W, j, i)
		}
		for k, c := range want.Fanins[i] {
			if got.Fanins[i][k] != c {
				t.Fatalf("%s: node %d fanin %d is %d, want %d", tag, i, k, got.Fanins[i][k], c)
			}
		}
	}
}

// buildCase is one expansion request for the replica-index tests.
type buildCase struct {
	c      *netlist.Circuit
	v      int
	labels []int
}

func newBuildCase(t *testing.T, seed int64, gates int) buildCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for {
		c := randomLoopy(rng, gates)
		if c.Check() != nil {
			continue
		}
		if v := pickTarget(c); v >= 0 {
			return buildCase{c, v, randomLabels(rng, c)}
		}
	}
}

// TestBuilderAcrossCircuitSizes reuses one Builder on a large circuit, a
// small one and the large one again: each result must match a one-shot Build
// exactly, so no replica-index entry of an earlier, differently sized
// circuit leaks into a later Build.
func TestBuilderAcrossCircuitSizes(t *testing.T) {
	large, small := newBuildCase(t, 6, 300), newBuildCase(t, 4, 12)
	opts := Options{LowDepth: 2}
	b := &Builder{}
	for i, bc := range []buildCase{large, small, large} {
		for L := 0; L <= 2; L++ {
			want, okW := (&Builder{}).Build(bc.c, bc.v, bc.labels, 1, L, opts)
			got, okG := b.Build(bc.c, bc.v, bc.labels, 1, L, opts)
			if okW != okG {
				t.Fatalf("build %d L=%d: builder ok=%v, one-shot ok=%v", i, L, okG, okW)
			}
			if !okW {
				t.Fatalf("build %d L=%d: expansion exceeds the node cap", i, L)
			}
			sameNumbering(t, "across sizes", got, want)
		}
	}
}

// TestBuilderGenerationWrap: a Build whose generation counter wraps must
// still start from an empty replica index.
func TestBuilderGenerationWrap(t *testing.T) {
	bc := newBuildCase(t, 4, 60)
	opts := Options{LowDepth: 2}
	b := &Builder{}
	for L := 0; L <= 2; L++ {
		if _, ok := b.Build(bc.c, bc.v, bc.labels, 1, L, opts); !ok {
			t.Fatal("build failed")
		}
	}
	// The next Build bumps gen past the top. Stamp every node with the
	// generation the wrap restarts at, as if the first Build above had
	// indexed them all: without the wrap handling they would read as current.
	b.x.gen = math.MaxUint32
	for i := range b.x.stamp {
		b.x.stamp[i] = 1
	}
	for L := 0; L <= 2; L++ {
		want, okW := (&Builder{}).Build(bc.c, bc.v, bc.labels, 1, L, opts)
		got, okG := b.Build(bc.c, bc.v, bc.labels, 1, L, opts)
		if okW != okG {
			t.Fatalf("L=%d: builder ok=%v, one-shot ok=%v", L, okG, okW)
		}
		if !okW {
			t.Fatalf("L=%d: expansion exceeds the node cap", L)
		}
		sameNumbering(t, "after wrap", got, want)
		if L == 0 && b.x.gen != 1 {
			t.Fatalf("gen after wrap = %d, want 1", b.x.gen)
		}
	}
}

// TestIndexAbsentReplicas: Index answers -1 for replicas the current Build
// did not create, including ones the previous Build on the same Builder did.
func TestIndexAbsentReplicas(t *testing.T) {
	bc := newBuildCase(t, 6, 80)
	opts := Options{LowDepth: 2}
	b := &Builder{}
	prev, ok := b.Build(bc.c, bc.v, bc.labels, 1, 3, opts)
	if !ok {
		t.Fatal("build failed")
	}
	old := append([]Node(nil), prev.Nodes...)
	// A different root yields a different replica set.
	v2 := -1
	for _, n := range bc.c.Nodes {
		if n.Kind == netlist.Gate && n.ID != bc.v {
			v2 = n.ID
			break
		}
	}
	x, ok := b.Build(bc.c, v2, bc.labels, 1, 1, Options{})
	if !ok {
		t.Fatal("build failed")
	}
	present := make(map[[2]int]bool, len(x.Nodes))
	for _, n := range x.Nodes {
		present[[2]int{n.Orig, n.W}] = true
	}
	stale := 0
	for _, n := range old {
		if present[[2]int{n.Orig, n.W}] {
			continue
		}
		stale++
		if id := x.Index(n.Orig, n.W); id != -1 {
			t.Fatalf("Index(%d,%d) = %d for a replica of the previous Build only", n.Orig, n.W, id)
		}
	}
	if stale == 0 {
		t.Fatal("test circuit gives no replica that only the previous Build had")
	}
	for _, q := range [][2]int{{v2, 1 << 20}, {-1, 0}, {bc.c.NumNodes(), 0}} {
		if id := x.Index(q[0], q[1]); id != -1 {
			t.Fatalf("Index(%d,%d) = %d for an absent replica", q[0], q[1], id)
		}
	}
}

// TestTightenMatchesFreshBuild: Tighten must extend the expansion to exactly
// the replica set, candidate marks and frontier a fresh Build at the tighter
// bound computes (replica numbering may differ).
func TestTightenMatchesFreshBuild(t *testing.T) {
	opts := Options{LowDepth: 2, MaxNodes: 4000}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLoopy(rng, 6+rng.Intn(18))
		if c.Check() != nil {
			continue
		}
		v := pickTarget(c)
		if v < 0 {
			continue
		}
		labels := randomLabels(rng, c)
		for L := 3; L >= 1; L-- {
			b := &Builder{}
			if _, ok := b.Build(c, v, labels, 1, L, opts); !ok {
				continue
			}
			for newL := L - 1; newL >= L-3; newL-- {
				want, okW := (&Builder{}).Build(c, v, labels, 1, newL, opts)
				got, okG := b.Tighten(newL)
				if okW != okG {
					t.Fatalf("seed %d L=%d->%d: tighten ok=%v, fresh ok=%v",
						seed, L, newL, okG, okW)
				}
				if !okW {
					break
				}
				sameExpansion(t, "tighten", got, want)
			}
		}
	}
}

// TestLoosenRemarks: Loosen must re-mark candidates by effective height
// against the looser bound while leaving the expanded region in place.
func TestLoosenRemarks(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := randomLoopy(rng, 20)
	if err := c.Check(); err != nil {
		t.Skip("unlucky generator draw")
	}
	v := pickTarget(c)
	labels := randomLabels(rng, c)
	const phi, L = 1, 1
	b := &Builder{}
	x, ok := b.Build(c, v, labels, phi, L, Options{LowDepth: 2, MaxNodes: 4000})
	if !ok {
		t.Fatal("build failed")
	}
	nodesBefore := len(x.Nodes)
	x = b.Loosen(L + 1)
	if len(x.Nodes) != nodesBefore {
		t.Fatalf("Loosen changed the region: %d -> %d replicas", nodesBefore, len(x.Nodes))
	}
	for i, n := range x.Nodes {
		if i == Root {
			if n.Candidate {
				t.Fatal("root must never be a candidate")
			}
			continue
		}
		eff := labels[n.Orig] - phi*n.W + 1
		if n.Candidate != (eff <= L+1) {
			t.Fatalf("replica (%d,%d): candidate=%v but eff=%d vs bound %d",
				n.Orig, n.W, n.Candidate, eff, L+1)
		}
	}
}

// TestWarmBuilderZeroAlloc pins the arena property: repeating the same
// expansion on a warm Builder allocates nothing.
func TestWarmBuilderZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := randomLoopy(rng, 25)
	if err := c.Check(); err != nil {
		t.Skip("unlucky generator draw")
	}
	v := pickTarget(c)
	labels := randomLabels(rng, c)
	opts := Options{LowDepth: 2, MaxNodes: 4000}
	b := &Builder{}
	build := func() {
		if _, ok := b.Build(c, v, labels, 1, 2, opts); !ok {
			t.Fatal("build failed")
		}
	}
	build() // warm up
	if allocs := testing.AllocsPerRun(100, build); allocs != 0 {
		t.Fatalf("warm Builder.Build allocates %.1f objects/run, want 0", allocs)
	}
}
