package logic

// Convenience constructors for the primitive gate functions used by the
// netlist builders and the benchmark generators. Each returns a table over
// nvar variables computing the gate over all of them.

// AndAll returns x_0 AND ... AND x_{nvar-1}.
func AndAll(nvar int) *TT {
	t := Const(nvar, true)
	for i := 0; i < nvar; i++ {
		t.And(t, Var(nvar, i))
	}
	return t
}

// OrAll returns x_0 OR ... OR x_{nvar-1}.
func OrAll(nvar int) *TT {
	t := Const(nvar, false)
	for i := 0; i < nvar; i++ {
		t.Or(t, Var(nvar, i))
	}
	return t
}

// XorAll returns x_0 XOR ... XOR x_{nvar-1}.
func XorAll(nvar int) *TT {
	t := Const(nvar, false)
	for i := 0; i < nvar; i++ {
		t.Xor(t, Var(nvar, i))
	}
	return t
}

// NandAll returns NOT(AndAll).
func NandAll(nvar int) *TT { t := AndAll(nvar); return t.Not(t) }

// NorAll returns NOT(OrAll).
func NorAll(nvar int) *TT { t := OrAll(nvar); return t.Not(t) }

// Buf returns the 1-input identity function.
func Buf() *TT { return Var(1, 0) }

// Inv returns the 1-input inverter.
func Inv() *TT { t := Var(1, 0); return t.Not(t) }

// Mux21 returns the 3-input multiplexer: x_2 ? x_1 : x_0.
func Mux21() *TT {
	s := Var(3, 2)
	a := Var(3, 0)
	b := Var(3, 1)
	ns := s.Clone().Not(s)
	lo := a.And(a, ns)
	hi := b.And(b, s)
	return lo.Or(lo, hi)
}
