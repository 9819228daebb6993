package decomp

import "turbosyn/internal/logic"

// Test oracles over decomposition results: recomposition, the tree's
// function, and its shape.

// Verify checks the decomposition against f exhaustively, one minterm at a
// time: f(x) = G(α_1(x_B), ..., α_e(x_B), x_F) at every x.
func (r *RothKarpResult) Verify(f *logic.TT) bool {
	for x := 0; x < f.NumBits(); x++ {
		var b, g uint
		for j, v := range r.BoundSet {
			b |= uint(x>>v&1) << j
		}
		for i, a := range r.Alphas {
			if a.Eval(b) {
				g |= 1 << i
			}
		}
		for i, v := range r.FreeSet {
			g |= uint(x>>v&1) << (len(r.Alphas) + i)
		}
		if r.G.Eval(g) != f.Bit(x) {
			return false
		}
	}
	return true
}

// expand returns f over n variables, variable j of f becoming variable
// vars[j], by composing f with projections.
func expand(f *logic.TT, n int, vars []int) *logic.TT {
	subs := make([]*logic.TT, len(vars))
	for j, v := range vars {
		subs[j] = logic.Var(n, v)
	}
	return f.Compose(subs, nil)
}

// TT materializes the tree's function, composing the node tables
// word-parallel from the leaves up.
func (t *Tree) TT() *logic.TT {
	n := t.NumInputs
	vals := make([]*logic.TT, n+len(t.Nodes))
	for i := 0; i < n; i++ {
		vals[i] = logic.Var(n, i)
	}
	for i, nd := range t.Nodes {
		if len(nd.Children) == 0 {
			vals[n+i] = logic.Const(n, nd.Func.Bit(0))
			continue
		}
		subs := make([]*logic.TT, len(nd.Children))
		for j, c := range nd.Children {
			subs[j] = vals[c]
		}
		vals[n+i] = nd.Func.Compose(subs, nil)
	}
	return vals[t.Root()]
}

// Depth returns the maximum node depth of the tree (a single node is 1).
func (t *Tree) Depth() int {
	depth := make([]int, t.NumInputs+len(t.Nodes))
	for i, nd := range t.Nodes {
		d := 0
		for _, c := range nd.Children {
			if depth[c] > d {
				d = depth[c]
			}
		}
		depth[t.NumInputs+i] = d + 1
	}
	return depth[t.Root()]
}

// MaxFanin returns the largest node fanin.
func (t *Tree) MaxFanin() int {
	m := 0
	for _, nd := range t.Nodes {
		if len(nd.Children) > m {
			m = len(nd.Children)
		}
	}
	return m
}
