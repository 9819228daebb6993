// Package expand builds the partial expanded circuits E_v of Pan–Liu that
// underlie the label computation of TurboMap and TurboSYN. A node of E_v is
// a replica (u, w): circuit node u together with the number w of registers
// on every path from the replica to the root v. Every LUT that can cover v
// under retiming and replication corresponds to a cut of E_v, and the cut's
// height against the current labels decides the label update.
//
// For a target ratio phi and height bound L, the effective height of a
// replica as a cut input is eff(u,w) = label(u) - phi*w + 1. Replicas with
// eff > L can never be cut inputs, so they must lie inside the LUT cone and
// are always expanded ("mandatory"); this region is finite because w grows
// around every loop. Replicas with eff <= L are cut candidates. Expanding
// through candidates lets the min-cut exploit reconvergence below the first
// candidate frontier; since E_v is infinite around loops, candidate
// expansion is bounded by Options.LowDepth extra levels (see DESIGN.md for
// why this is the standard practical compromise and which direction it errs:
// labels can only round up, never produce an invalid mapping).
//
// The label hot loop probes several height bounds per node (the structural
// check at L, resynthesis at L-1, L-2, ..., the trivial cut at L+1). A
// Builder serves them without re-expanding per bound: Build expands at L
// reusing the replica index and backing arrays of earlier calls (zero heap
// allocation once warm), Tighten extends the expansion in place to a
// tighter bound (the expanded region grows monotonically as the bound
// drops), and Loosen re-marks cut candidates for a looser bound without
// touching the region.
package expand

import (
	"turbosyn/internal/netlist"
)

// Options tunes the expansion.
type Options struct {
	// LowDepth is the number of extra levels to expand through cut
	// candidates. 0 stops at the first candidate (the TurboMap frontier).
	LowDepth int
	// MaxNodes caps the expanded size; Build fails beyond it.
	// 0 means DefaultMaxNodes.
	MaxNodes int
}

// DefaultMaxNodes bounds one expansion when Options.MaxNodes is 0.
const DefaultMaxNodes = 50000

// Node is one replica of E_v.
type Node struct {
	Orig      int  // original circuit node
	W         int  // registers on every path from this replica to the root
	Candidate bool // eff <= L: may serve as a cut input (capacity 1)
	Frontier  bool // expansion stopped here: supplied by the source side
}

// Expanded is a finite portion of E_v sufficient for the cut decision.
type Expanded struct {
	// Nodes[0] is the root (v, 0).
	Nodes []Node
	// Fanins[i] lists the replica indices feeding Nodes[i]; empty for
	// frontier nodes.
	Fanins [][]int

	// The replica index: the replicas of one original node form a chain
	// head[orig] -> sameOrig[id] -> ... -> -1, newest first. head[orig] is
	// valid only where stamp[orig] == gen, so a new Build starts from an
	// empty index by bumping gen instead of clearing anything.
	head     []int32
	stamp    []uint32
	sameOrig []int32
	gen      uint32
}

// Root index of (v, 0) in Nodes.
const Root = 0

// Index returns the replica id of (orig, w), or -1.
func (x *Expanded) Index(orig, w int) int {
	if orig < 0 || orig >= len(x.stamp) || x.stamp[orig] != x.gen {
		return -1
	}
	for id := x.head[orig]; id >= 0; id = x.sameOrig[id] {
		if x.Nodes[id].W == w {
			return int(id)
		}
	}
	return -1
}

// stepInf marks a replica not yet reached by the current step relaxation.
const stepInf = int(1) << 30

// Builder is a reusable expansion arena. A zero Builder is ready to use; the
// replica index, node and fanin arrays, and the traversal worklist are
// recycled across Build calls, so a warm Builder expands without heap
// allocation. One Builder serves one goroutine; the *Expanded it returns
// aliases the Builder's arrays and stays valid only until the next Build on
// the same Builder.
type Builder struct {
	x Expanded
	// steps[i]: consecutive candidate levels on the shallowest discovery
	// path (0 for the root and for mandatory replicas, stepInf before the
	// replica is reached by the relaxation).
	steps    []int
	expanded []bool
	queue    []int
	faninBuf []int // flat arena the Fanins segments slice into

	// Build inputs retained for Tighten/Loosen.
	c        *netlist.Circuit
	labels   []int
	phi, l   int
	opts     Options
	maxNodes int
}

// Build expands E_v far enough to decide whether a cut of height <= L exists
// for target ratio phi under the given labels. It fails (ok=false) only when
// the expansion exceeds the node cap; callers must then treat the cut as
// nonexistent, which errs toward larger labels but never invalid mappings.
//
// Build reuses the Builder's arrays: the returned Expanded aliases the
// Builder and is valid until the next Build.
func (b *Builder) Build(c *netlist.Circuit, v int, labels []int, phi, L int, opts Options) (*Expanded, bool) {
	b.c, b.labels, b.phi, b.l, b.opts = c, labels, phi, L, opts
	b.maxNodes = opts.MaxNodes
	if b.maxNodes <= 0 {
		b.maxNodes = DefaultMaxNodes
	}
	x := &b.x
	x.Nodes = x.Nodes[:0]
	x.Fanins = x.Fanins[:0]
	x.sameOrig = x.sameOrig[:0]
	if n := c.NumNodes(); len(x.stamp) < n {
		x.head = make([]int32, n)
		x.stamp = make([]uint32, n)
	}
	if x.gen++; x.gen == 0 {
		// The stamps wrapped: one stamp of an old Build could equal gen.
		clear(x.stamp)
		x.gen = 1
	}
	b.steps = b.steps[:0]
	b.expanded = b.expanded[:0]
	b.faninBuf = b.faninBuf[:0]

	if _, ok := b.add(v, 0, 0); !ok {
		return nil, false
	}
	b.queue = append(b.queue[:0], Root)
	if !b.relax() {
		return nil, false
	}
	b.markFrontier()
	return x, true
}

// Tighten lowers the height bound to newL (newL <= the current bound) and
// extends the expansion in place: dropping the bound turns candidates into
// mandatory replicas and shortens candidate runs, so the expanded region of
// the tighter bound is a superset of the current one. Candidate marks, step
// counts and the frontier are recomputed exactly as a fresh Build at newL
// would compute them; the only difference from a fresh Build is the replica
// numbering, which keeps the discovery order of the original bound.
//
// It fails (ok=false) when the extension exceeds the node cap — the same
// verdict a fresh Build at newL would reach, since that build expands the
// same region.
func (b *Builder) Tighten(newL int) (*Expanded, bool) {
	x := &b.x
	b.l = newL
	// Re-mark candidates under the tighter bound and reset the relaxation.
	for i := range x.Nodes {
		n := &x.Nodes[i]
		eff := b.labels[n.Orig] - b.phi*n.W + 1
		n.Candidate = i != Root && eff <= newL
		b.steps[i] = stepInf
		b.expanded[i] = false
	}
	b.steps[Root] = 0
	b.queue = append(b.queue[:0], Root)
	if !b.relax() {
		return nil, false
	}
	b.markFrontier()
	return x, true
}

// Loosen re-marks cut candidates for a looser height bound (newL >= the
// current bound) without recomputing the expanded region. The region built
// at the tighter bound is a superset of what a fresh Build at newL would
// expand, so every cut the re-marked graph admits is valid at newL; the
// extra depth can only expose better cuts.
func (b *Builder) Loosen(newL int) *Expanded {
	x := &b.x
	b.l = newL
	for i := range x.Nodes {
		n := &x.Nodes[i]
		eff := b.labels[n.Orig] - b.phi*n.W + 1
		n.Candidate = i != Root && eff <= newL
	}
	return x
}

// add interns replica (orig, w), creating it with the given step count or
// improving the count of an existing replica. The second result reports
// whether the replica may newly qualify for expansion (created or improved);
// ok=false when the node cap is exceeded.
func (b *Builder) add(orig, w, step int) (id int, improved bool) {
	x := &b.x
	if id = x.Index(orig, w); id >= 0 {
		if step < b.steps[id] {
			b.steps[id] = step
			return id, true
		}
		return id, false
	}
	id = len(x.Nodes)
	if x.stamp[orig] == x.gen {
		x.sameOrig = append(x.sameOrig, x.head[orig])
	} else {
		x.stamp[orig] = x.gen
		x.sameOrig = append(x.sameOrig, -1)
	}
	x.head[orig] = int32(id)
	eff := b.labels[orig] - b.phi*w + 1
	x.Nodes = append(x.Nodes, Node{
		Orig:      orig,
		W:         w,
		Candidate: id != Root && eff <= b.l,
	})
	x.Fanins = append(x.Fanins, nil)
	b.steps = append(b.steps, step)
	b.expanded = append(b.expanded, false)
	return id, true
}

// expandable reports whether replica id should have its fanins expanded.
func (b *Builder) expandable(id int) bool {
	n := &b.x.Nodes[id]
	if b.c.Nodes[n.Orig].Kind == netlist.PI {
		return false
	}
	if id == Root || !n.Candidate {
		return true
	}
	return b.steps[id] <= b.opts.LowDepth
}

// relax runs the expansion worklist to its fixed point: every queued replica
// that is expandable under the current step counts has its fanins interned
// (recorded once, into the flat fanin arena) and its children's step counts
// relaxed. Returns false when the node cap is exceeded.
func (b *Builder) relax() bool {
	x := &b.x
	for len(b.queue) > 0 {
		id := b.queue[len(b.queue)-1]
		b.queue = b.queue[:len(b.queue)-1]
		if !b.expandable(id) {
			continue
		}
		first := !b.expanded[id]
		b.expanded[id] = true
		n := x.Nodes[id]
		orig := b.c.Nodes[n.Orig]
		var faninStart int
		if first && x.Fanins[id] == nil {
			faninStart = len(b.faninBuf)
		} else {
			first = false // fanins already recorded (e.g. by a prior bound)
		}
		if known := x.Fanins[id]; known != nil {
			// Children already interned: only relax their step counts.
			for fi, cid := range known {
				if improved := b.relaxChild(&n, id, orig.Fanins[fi], cid); improved {
					b.queue = append(b.queue, cid)
				}
			}
			continue
		}
		for _, f := range orig.Fanins {
			if len(x.Nodes) >= b.maxNodes {
				return false
			}
			cw := n.W + f.Weight
			childStep := b.childStep(&n, id, f.From, cw)
			cid, improved := b.add(f.From, cw, childStep)
			if first {
				b.faninBuf = append(b.faninBuf, cid)
			}
			// Re-queue on any improvement: even an already-expanded child
			// must re-propagate its now-shallower candidate run.
			if improved {
				b.queue = append(b.queue, cid)
			}
		}
		if first {
			// The segment may point into an older backing array if faninBuf
			// grew; earlier segments keep their (still valid) arrays alive.
			x.Fanins[id] = b.faninBuf[faninStart:len(b.faninBuf):len(b.faninBuf)]
		}
	}
	return true
}

// childStep computes the candidate-run length a child inherits through the
// given fanin edge: a candidate child continues (or starts) a candidate run,
// mandatory children reset the run.
func (b *Builder) childStep(n *Node, id, from, cw int) int {
	if eff := b.labels[from] - b.phi*cw + 1; eff <= b.l {
		if n.Candidate {
			return b.steps[id] + 1
		}
		return 1
	}
	return 0
}

// relaxChild relaxes the step count of an already-interned child cid reached
// from id through fanin edge f; reports whether the count improved.
func (b *Builder) relaxChild(n *Node, id int, f netlist.Fanin, cid int) bool {
	step := b.childStep(n, id, f.From, n.W+f.Weight)
	if step < b.steps[cid] {
		b.steps[cid] = step
		return true
	}
	return false
}

// markFrontier flags everything that ended up unexpanded.
func (b *Builder) markFrontier() {
	for id := range b.x.Nodes {
		b.x.Nodes[id].Frontier = !b.expanded[id]
	}
}

// Bytes reports the approximate footprint of the Builder's retained arrays,
// for arena high-water accounting.
func (b *Builder) Bytes() int {
	const nodeSize = 24 // Node: 2 ints + 2 bools, padded
	return cap(b.x.Nodes)*nodeSize +
		cap(b.x.Fanins)*24 +
		cap(b.steps)*8 +
		cap(b.expanded) +
		cap(b.queue)*8 +
		cap(b.faninBuf)*8 +
		(cap(b.x.head)+cap(b.x.stamp)+cap(b.x.sameOrig))*4
}
