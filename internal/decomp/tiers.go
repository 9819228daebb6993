package decomp

import (
	"sort"

	"turbosyn/internal/logic"
)

// Cheap decomposition tiers that run below full Roth-Karp: a large share of
// real cone functions either peel off single-literal disjoint factors
// (f = x AND g, x OR g, x XOR g and the negated-literal variants) or split
// cleanly on one Shannon variable. Both tiers cost a handful of cofactor
// operations instead of an exponential bound-set extraction, consume none of
// the Effort allowances, and — like every DecomposeEffort path — are a pure
// deterministic function of their inputs, so cached results stay replayable.

// disjointPeelTree peels single-literal disjoint factors off f: as long as
// some variable v satisfies f = lit(v) op rest for one associative op
// (AND, OR or XOR), the literal moves into a single root node and the
// search continues on the residual. f is support-normalized with more than
// k variables. ok=false when no literal peels or the residual does not
// decompose within depthBudget-1.
func disjointPeelTree(f *logic.TT, refs []int, k, depthBudget int, rank map[int]int, tr *Tree, es *effortState) (int, bool) {
	if depthBudget < 2 {
		return 0, false
	}
	m := f.NumVars()
	type literal struct {
		v   int
		neg bool
	}
	var op byte // 'a' AND, 'o' OR, 'x' XOR
	var peels []literal
	peeled := make([]bool, m)
	// The cofactors are tested in two scratch tables; only a peel copies
	// its residual out.
	g0, g1 := logic.NewTT(m), logic.NewTT(m)
	g := f
	for len(peels) < k-1 {
		found := false
		for v := 0; v < m && !found; v++ {
			if peeled[v] {
				continue
			}
			g0.CopyFrom(g).CofactorInPlace(v, false)
			g1.CopyFrom(g).CofactorInPlace(v, true)
			c0, v0 := g0.IsConst()
			c1, v1 := g1.IsConst()
			var o byte
			var neg bool
			var rest *logic.TT
			switch {
			case c0 && !v0: // f = x_v AND g1
				o, neg, rest = 'a', false, g1
			case c1 && !v1: // f = NOT x_v AND g0
				o, neg, rest = 'a', true, g0
			case c1 && v1: // f = x_v OR g0
				o, neg, rest = 'o', false, g0
			case c0 && v0: // f = NOT x_v OR g1
				o, neg, rest = 'o', true, g1
			default:
				if !g1.Not(g1).Equal(g0) {
					continue
				}
				o, neg, rest = 'x', false, g0 // f = x_v XOR g0
			}
			if op != 0 && o != op {
				continue // a mixed-op chain needs one level per op; next round
			}
			op = o
			peels = append(peels, literal{v, neg})
			peeled[v] = true
			g = rest.Clone()
			found = true
		}
		if !found {
			break
		}
	}
	if len(peels) == 0 {
		return 0, false
	}
	mark := len(tr.Nodes)
	sub, ok := decomposeOver(g, refs, k, depthBudget-1, rank, tr, es)
	if !ok {
		tr.Nodes = tr.Nodes[:mark]
		return 0, false
	}
	// Root: op over the peeled literals (positions 0..p-1) and the residual
	// subtree (position p).
	p := len(peels)
	fn := logic.Var(p+1, p)
	children := make([]int, 0, p+1)
	for i, pl := range peels {
		lit := logic.Var(p+1, i)
		if pl.neg {
			lit.Not(lit)
		}
		switch op {
		case 'a':
			fn.And(fn, lit)
		case 'o':
			fn.Or(fn, lit)
		case 'x':
			fn.Xor(fn, lit)
		}
		children = append(children, refs[pl.v])
	}
	children = append(children, sub)
	tr.Nodes = append(tr.Nodes, TreeNode{Func: fn, Children: children})
	es.disjoint++
	return tr.NumInputs + len(tr.Nodes) - 1, true
}

// shannonTree splits f on one Shannon variable when both cofactors fit
// directly into single k-input leaves: f = v ? f1 : f0 becomes two leaf
// nodes under a 3-input mux, depth 2. Split candidates are tried
// latest-arriving first, so the select input — the only one crossing both
// levels — is the signal the labeling wants near the root. f is
// support-normalized with more than k variables.
func shannonTree(f *logic.TT, refs []int, k, depthBudget int, rank map[int]int, tr *Tree, es *effortState) (int, bool) {
	m := f.NumVars()
	if k < 3 || depthBudget < 2 || m-1 > 2*k {
		return 0, false
	}
	order := make([]int, m)
	for v := range order {
		order[v] = v
	}
	sort.SliceStable(order, func(a, b int) bool {
		return rank[refs[order[a]]] > rank[refs[order[b]]]
	})
	// Both cofactors are tested in scratch tables; only a split that fits
	// projects them into node functions.
	f0, f1 := logic.NewTT(m), logic.NewTT(m)
	for _, v := range order {
		f0.CopyFrom(f).CofactorInPlace(v, false)
		f1.CopyFrom(f).CofactorInPlace(v, true)
		n0, n1 := f0.SupportSize(), f1.SupportSize()
		if n0 == 0 || n1 == 0 {
			continue // a constant cofactor is a literal peel, not a mux
		}
		if n0 > k || n1 > k {
			continue
		}
		s0, s1 := f0.Support(), f1.Support()
		tr.Nodes = append(tr.Nodes, TreeNode{Func: projectTT(f0, s0), Children: mapRefs(s0, refs)})
		r0 := tr.NumInputs + len(tr.Nodes) - 1
		tr.Nodes = append(tr.Nodes, TreeNode{Func: projectTT(f1, s1), Children: mapRefs(s1, refs)})
		r1 := tr.NumInputs + len(tr.Nodes) - 1
		// Mux21 computes x2 ? x1 : x0, so the select rides as child 2.
		tr.Nodes = append(tr.Nodes, TreeNode{Func: logic.Mux21(), Children: []int{r0, r1, refs[v]}})
		es.shannon++
		return tr.NumInputs + len(tr.Nodes) - 1, true
	}
	return 0, false
}
