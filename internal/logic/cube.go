package logic

// Cube is a product term over up to MaxVars variables: variable i is in the
// cube iff bit i of Care is set, with polarity bit i of Pol (1 = positive
// literal). The empty cube (Care == 0) is the tautology.
type Cube struct {
	Care uint32
	Pol  uint32
}

// ISOP computes an irredundant sum-of-products cover of f using the
// Minato–Morreale procedure. The cover is exact: the disjunction of its
// cubes equals f. Covers are usually far smaller than minterm covers, which keeps
// the gate-decomposition trees (and BLIF files) small.
func ISOP(f *TT) []Cube {
	cover, _ := isop(f.Clone(), f.Clone(), f.NumVars())
	return cover
}

// isop returns a cover C with L <= C <= U and the TT of C.
// L and U are consumed (mutated).
func isop(l, u *TT, nvar int) ([]Cube, *TT) {
	if c, v := l.IsConst(); c && !v {
		return nil, Const(l.NumVars(), false)
	}
	if c, v := u.IsConst(); c && v {
		return []Cube{{}}, Const(l.NumVars(), true)
	}
	// Split on the lowest variable where either bound actually varies.
	x := -1
	for i := 0; i < nvar; i++ {
		if l.DependsOn(i) || u.DependsOn(i) {
			x = i
			break
		}
	}
	if x == -1 {
		// l is not constant-0 and u is not constant-1, yet neither depends
		// on anything: impossible since l <= u.
		panic("logic: isop invariant violated")
	}
	n := l.NumVars()
	l0, l1 := l.Cofactor(x, false), l.Cofactor(x, true)
	u0, u1 := u.Cofactor(x, false), u.Cofactor(x, true)

	// Cubes that must carry literal !x: needed where f must be 1 with x=0
	// but cannot be covered by an x-free cube (u1 is 0 there).
	nu1 := NewTT(n).Not(u1)
	c0, t0 := isop(NewTT(n).And(l0, nu1), u0.Clone(), nvar)
	// Cubes that must carry literal x.
	nu0 := NewTT(n).Not(u0)
	c1, t1 := isop(NewTT(n).And(l1, nu0), u1.Clone(), nvar)
	// Remaining requirements, coverable without mentioning x.
	d0 := NewTT(n).And(l0, NewTT(n).Not(t0))
	d1 := NewTT(n).And(l1, NewTT(n).Not(t1))
	cc, tc := isop(NewTT(n).Or(d0, d1), NewTT(n).And(u0, u1), nvar)

	out := make([]Cube, 0, len(c0)+len(c1)+len(cc))
	for _, q := range c0 {
		q.Care |= 1 << uint(x)
		out = append(out, q)
	}
	for _, q := range c1 {
		q.Care |= 1 << uint(x)
		q.Pol |= 1 << uint(x)
		out = append(out, q)
	}
	out = append(out, cc...)

	xv := Var(n, x)
	nxv := NewTT(n).Not(xv)
	res := NewTT(n).Or(
		NewTT(n).Or(NewTT(n).And(nxv, t0), NewTT(n).And(xv, t1)),
		tc)
	return out, res
}

// IsParity reports whether f is an affine parity function over its support:
// f = c XOR x_{i1} XOR ... XOR x_{ik} with k >= 1. It returns the support and
// the complement flag when so. Constants are not parities (ok=false): they
// have no support to reduce over, and callers build trees from the support.
func (t *TT) IsParity() (support []int, invert, ok bool) {
	// A parity over a non-empty support is one on exactly half the table.
	if t.CountOnes() != t.NumBits()/2 {
		return nil, false, false
	}
	support = t.Support()
	if len(support) == 0 {
		return nil, false, false
	}
	p := NewTT(t.nvar)
	x := NewTT(t.nvar)
	for _, i := range support {
		p.Xor(p, x.SetVar(i))
	}
	if p.Equal(t) {
		return support, false, true
	}
	if x.Not(p).Equal(t) {
		return support, true, true
	}
	return nil, false, false
}
