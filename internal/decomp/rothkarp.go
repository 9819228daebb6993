// Package decomp implements the two decomposition engines of the flow:
//
//   - Roth–Karp (bound-set) functional decomposition on truth tables, with
//     column multiplicity counted exactly by word-parallel block compares on
//     a reordered table — the role of the paper's "OBDD based functional
//     decomposition" in FlowSYN and in TurboSYN's sequential resynthesis
//     step; and
//   - structural gate decomposition (K-bounding) that turns wide gates into
//     trees of K-input gates, the preprocessing the paper delegates to
//     balanced tree decomposition / DMIG.
package decomp

import (
	"fmt"
	"sort"

	"turbosyn/internal/logic"
)

// RothKarpResult is one Roth–Karp decomposition f = G(alphas(A), B).
type RothKarpResult struct {
	BoundSet []int // f-variable indices encoded by the alphas
	FreeSet  []int // f-variable indices passed through to g
	// Alphas are functions over len(BoundSet) variables (variable j =
	// BoundSet[j]).
	Alphas []*logic.TT
	// G ranges over len(Alphas)+len(FreeSet) variables: the alpha outputs
	// first, then the free variables in FreeSet order.
	G *logic.TT
}

// codeBits returns the Roth-Karp code width for column multiplicity mu:
// ceil(log2 mu), floored at one wire. RothKarp sizes its code with it.
func codeBits(mu int) int {
	e := 0
	for 1<<uint(e) < mu {
		e++
	}
	if e == 0 {
		e = 1
	}
	return e
}

// RothKarp decomposes f as g(alpha_1(A), ..., alpha_e(A), B) for the given
// bound set A (indices into f's variables); B is the complement. e is the
// code width ceil(log2 mu) for column multiplicity mu. maxCodeBits limits e
// (0 = unlimited). ok=false when mu needs more bits than allowed.
//
// Columns are compared word-parallel: f is reordered so the free variables
// sit low (in FreeSet order) and the bound variables high (in BoundSet
// order), which makes the column of bound assignment a the contiguous block
// a of 2^len(FreeSet) bits.
func RothKarp(f *logic.TT, boundSet []int, maxCodeBits int) (*RothKarpResult, bool) {
	n := f.NumVars()
	k := len(boundSet)
	if k == 0 || k >= n {
		return nil, false
	}
	var seen [logic.MaxVars]bool
	for _, v := range boundSet {
		if v < 0 || v >= n || seen[v] {
			panic(fmt.Sprintf("decomp: bad bound set %v for %d vars", boundSet, n))
		}
		seen[v] = true
	}
	freeSet := make([]int, 0, n-k)
	for v := 0; v < n; v++ {
		if !seen[v] {
			freeSet = append(freeSet, v)
		}
	}
	nb := len(freeSet)
	var perm [logic.MaxVars]int
	for j, v := range freeSet {
		perm[v] = j
	}
	for j, v := range boundSet {
		perm[v] = nb + j
	}
	cols := f.Clone()
	cols.PermuteVarsInPlace(perm[:n])

	// Classes in order of first appearance; reps[c] is the first column of
	// class c. A code of e <= maxCodeBits wires holds at most 2^maxCodeBits
	// classes, so the scan stops at the first class beyond that.
	maxClasses := 1 << uint(k)
	if maxCodeBits > 0 && maxCodeBits < k {
		maxClasses = 1 << uint(maxCodeBits)
	}
	classOf := make([]int, 1<<uint(k))
	reps := make([]int, 0, maxClasses)
	for a := range classOf {
		c := 0
		for c < len(reps) && !cols.BlocksEqual(nb, a, reps[c]) {
			c++
		}
		if c == len(reps) {
			if len(reps) == maxClasses {
				return nil, false
			}
			reps = append(reps, a)
		}
		classOf[a] = c
	}
	e := codeBits(len(reps))

	res := &RothKarpResult{BoundSet: boundSet, FreeSet: freeSet, Alphas: make([]*logic.TT, 0, e)}
	for i := 0; i < e; i++ {
		alpha := logic.NewTT(k)
		for a := 0; a < 1<<uint(k); a++ {
			if classOf[a]&(1<<uint(i)) != 0 {
				alpha.SetBit(a, true)
			}
		}
		res.Alphas = append(res.Alphas, alpha)
	}
	// G is built with the code variables high, block c holding the column
	// of class c (unused codes are don't-cares, fixed to 0), then the code
	// variables move below the free ones.
	g := logic.NewTT(e + nb)
	for c, a := range reps {
		g.CopyBlock(nb, c, cols, a)
	}
	for j := 0; j < nb; j++ {
		perm[j] = e + j
	}
	for i := 0; i < e; i++ {
		perm[nb+i] = i
	}
	g.PermuteVarsInPlace(perm[:nb+e])
	res.G = g
	return res, true
}

// Tree is a multi-level decomposition of a function into nodes of bounded
// fanin. Leaves are the original inputs 0..NumInputs-1; internal nodes are
// numbered NumInputs+i for Nodes[i]. Root is always the last node.
type Tree struct {
	NumInputs int
	Nodes     []TreeNode
}

// TreeNode computes Func over its children (child j = variable j of Func).
type TreeNode struct {
	Func     *logic.TT
	Children []int
}

// Root returns the root node reference (NumInputs + len(Nodes) - 1).
func (t *Tree) Root() int { return t.NumInputs + len(t.Nodes) - 1 }

// Eval computes the tree's function over its NumInputs leaves.
func (t *Tree) Eval(assignment uint) bool {
	vals := make([]bool, t.NumInputs+len(t.Nodes))
	for i := 0; i < t.NumInputs; i++ {
		vals[i] = assignment&(1<<uint(i)) != 0
	}
	for i, nd := range t.Nodes {
		var a uint
		for j, c := range nd.Children {
			if vals[c] {
				a |= 1 << uint(j)
			}
		}
		vals[t.NumInputs+i] = nd.Func.Eval(a)
	}
	return vals[t.Root()]
}

// Effort bounds the work one DecomposeEffort call may spend. The zero value
// means unlimited effort: the exact search the paper describes. Positive
// bounds trade completeness for predictable worst-case cost; a search
// truncated by a bound reports degraded=true so callers can count the quality
// loss (see core.Stats.Degradations).
type Effort struct {
	// MaxBoundSets, when positive, caps the total bound-set candidates
	// examined across the whole DecomposeEffort call; the search stops
	// (degraded) when the allowance runs out.
	MaxBoundSets int
	// Stats, when non-nil, accumulates the work the call actually performed
	// (observability only — it never influences the search, so it is not
	// part of decomposition-cache keys).
	Stats *EffortStats
}

// EffortStats counts the work of one or more DecomposeEffort calls when collected
// via Effort.Stats.
type EffortStats struct {
	// BoundSetsExamined is how many candidate bound sets the window scan
	// actually examined (cache hits replay none).
	BoundSetsExamined int
	// RothKarpCalls is how many full Roth-Karp extractions ran. The
	// warm-cache gate pins its skip rate on this counter.
	RothKarpCalls int
	// ShannonSplits counts trees built by the Shannon-cofactor fast tier.
	ShannonSplits int
	// DisjointPeels counts root nodes built by the disjoint literal-peel
	// fast tier.
	DisjointPeels int
}

// effortState tracks consumption of one DecomposeEffort call's Effort.
type effortState struct {
	eff      Effort
	examined int
	rothkarp int
	shannon  int
	disjoint int
	degraded bool
}

// allow reports whether one more bound-set candidate may be examined,
// marking the search degraded when the allowance just ran out.
func (es *effortState) allow() bool {
	if es.eff.MaxBoundSets > 0 && es.examined >= es.eff.MaxBoundSets {
		es.degraded = true
		return false
	}
	es.examined++
	return true
}

// DecomposeEffort expresses f as a tree of at-most-K-input nodes of depth at
// most depthBudget, searching bound sets in the priority order of the inputs:
// inputs earlier in priority are preferred inside bound sets (the paper
// sorts by effective label, so early-arriving signals sink to the leaves
// and late ones stay near the root). priority may be nil for natural order.
// ok=false when the search fails within the depth budget.
//
// eff bounds the work; a zero Effort is the exact, unbounded search.
// degraded reports that the bound truncated the search: candidate bound sets
// were skipped, so a failure (or a worse tree) may be a budget artifact
// rather than a real infeasibility.
func DecomposeEffort(f *logic.TT, k, depthBudget int, priority []int, eff Effort) (*Tree, bool, bool) {
	if k < 2 {
		return nil, false, false
	}
	n := f.NumVars()
	tr := &Tree{NumInputs: n}
	// rank: lower = prefer inside bound sets (earlier-arriving signal).
	rank := make(map[int]int, n)
	if priority != nil {
		for i, v := range priority {
			rank[v] = i
		}
	} else {
		for v := 0; v < n; v++ {
			rank[v] = v
		}
	}
	refs := make([]int, n)
	for i := range refs {
		refs[i] = i
	}
	es := &effortState{eff: eff}
	if eff.Stats != nil {
		defer func() {
			eff.Stats.BoundSetsExamined += es.examined
			eff.Stats.RothKarpCalls += es.rothkarp
			eff.Stats.ShannonSplits += es.shannon
			eff.Stats.DisjointPeels += es.disjoint
		}()
	}
	root, ok := decomposeOver(f, refs, k, depthBudget, rank, tr, es)
	if !ok {
		return nil, false, es.degraded
	}
	if root != tr.Root() {
		panic("decomp: root bookkeeping broken")
	}
	return tr, true, es.degraded
}

// decomposeOver decomposes f, whose variable j corresponds to tree reference
// refs[j], appending nodes to tr and returning the root reference. rank maps
// tree references to bound-set priority (internal alpha nodes get the rank
// of their latest input, keeping the cascade balanced).
//
// One invocation handles one tree level: it repeatedly extracts disjoint
// bound sets into alpha nodes — never re-encoding an alpha created at this
// level, so all of them sit side by side one level deep — and then recurses
// on the shrunken composition function with one level less budget.
func decomposeOver(f *logic.TT, refs []int, k, depthBudget int, rank map[int]int, tr *Tree, es *effortState) (int, bool) {
	// Normalize to the support.
	support := f.Support()
	if len(support) < f.NumVars() {
		f = projectTT(f, support)
		refs = mapRefs(support, refs)
	}
	if f.NumVars() <= k {
		if depthBudget < 1 {
			return 0, false
		}
		tr.Nodes = append(tr.Nodes, TreeNode{Func: f.Clone(), Children: append([]int(nil), refs...)})
		return tr.NumInputs + len(tr.Nodes) - 1, true
	}
	if depthBudget < 2 {
		return 0, false
	}
	// Fast path for the associative shapes that dominate real cone
	// functions (wide AND/OR from control SOPs, parity from arithmetic):
	// build a balanced k-ary tree directly instead of searching bound sets.
	if root, ok := associativeTree(f, refs, k, depthBudget, tr); ok {
		return root, true
	}
	// Cheap tiers before the exponential bound-set search: disjoint literal
	// peeling, then a single-variable Shannon split (see tiers.go).
	if root, ok := disjointPeelTree(f, refs, k, depthBudget, rank, tr, es); ok {
		return root, true
	}
	if root, ok := shannonTree(f, refs, k, depthBudget, rank, tr, es); ok {
		return root, true
	}
	mark := len(tr.Nodes)
	fresh := make([]bool, f.NumVars()) // alphas created at this level
	progressed := false
	for f.NumVars() > k {
		m := f.NumVars()
		// Encodable variables, ordered by priority.
		var ordered []int
		for v := 0; v < m; v++ {
			if !fresh[v] {
				ordered = append(ordered, v)
			}
		}
		sort.SliceStable(ordered, func(a, b int) bool {
			return rank[refs[ordered[a]]] < rank[refs[ordered[b]]]
		})
		found := false
		// Window starts are capped: the priority sort already puts the
		// best bound-set candidates first, and an exhaustive slide makes
		// the search quadratic on undecomposable functions.
		const maxStarts = 6
	search:
		for size := min(k, len(ordered)); size >= 2; size-- {
			for start := 0; start+size <= len(ordered) && start < maxStarts; start++ {
				if !es.allow() {
					break search // candidate allowance spent; search degraded
				}
				bound := append([]int(nil), ordered[start:start+size]...)
				// The code must be narrower than the bound set, so every
				// extraction strictly reduces the input count.
				es.rothkarp++
				rk, ok := RothKarp(f, bound, size-1)
				if !ok {
					continue
				}
				// Alphas become depth-1 nodes; they inherit the rank of
				// their latest bound input.
				alphaRank := 0
				for _, v := range bound {
					if r := rank[refs[v]]; r > alphaRank {
						alphaRank = r
					}
				}
				boundRefs := mapRefs(bound, refs)
				newRefs := make([]int, 0, len(rk.Alphas)+len(rk.FreeSet))
				newFresh := make([]bool, 0, len(rk.Alphas)+len(rk.FreeSet))
				for _, a := range rk.Alphas {
					sup := a.Support()
					tr.Nodes = append(tr.Nodes, TreeNode{
						Func:     projectTT(a, sup),
						Children: mapRefs(sup, boundRefs),
					})
					ref := tr.NumInputs + len(tr.Nodes) - 1
					rank[ref] = alphaRank
					newRefs = append(newRefs, ref)
					newFresh = append(newFresh, true)
				}
				for _, v := range rk.FreeSet {
					newRefs = append(newRefs, refs[v])
					newFresh = append(newFresh, fresh[v])
				}
				f, refs, fresh = rk.G, newRefs, newFresh
				progressed, found = true, true
				break search
			}
		}
		if !found {
			break
		}
	}
	if !progressed {
		return 0, false
	}
	// Next level: everything (alphas included) is an ordinary input now.
	root, ok := decomposeOver(f, refs, k, depthBudget-1, rank, tr, es)
	if !ok {
		tr.Nodes = tr.Nodes[:mark]
		return 0, false
	}
	return root, true
}

// projectTT shrinks f to the given variables (f must not depend on others):
// variable vars[j] moves to position j, and the result is the first
// 2^len(vars) bits of the reordered table.
func projectTT(f *logic.TT, vars []int) *logic.TT {
	n := f.NumVars()
	var perm [logic.MaxVars]int
	var placed [logic.MaxVars]bool
	identity := true
	for j, v := range vars {
		perm[v], placed[v] = j, true
		identity = identity && v == j
	}
	next := len(vars)
	for v := 0; v < n; v++ {
		if !placed[v] {
			perm[v] = next
			next++
		}
	}
	if !identity {
		f = f.Clone()
		f.PermuteVarsInPlace(perm[:n])
	}
	return logic.NewTT(len(vars)).CopyBlock(len(vars), 0, f, 0)
}

func mapRefs(vars []int, refs []int) []int {
	out := make([]int, len(vars))
	for i, v := range vars {
		out[i] = refs[v]
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
