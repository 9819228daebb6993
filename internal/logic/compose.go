package logic

// Compose substitutes functions for variables: result(x) =
// t(subs[0](x), ..., subs[nvar-1](x)). All substituted functions must range
// over the same variable count, which becomes the result's variable count.
// It runs word-parallel over the substituted tables via Shannon expansion
// of t:
//
//	t = ~x_j·t0 + x_j·t1  =>  result = (~subs[j] AND compose(t0)) OR
//	                                    (subs[j] AND compose(t1))
//
// Cost is O(2^support(t) * words(result)) instead of the bit-serial
// O(2^result * support(t)) of evaluating t once per result minterm — the
// difference matters when the result ranges over many more variables than
// t (K-input node functions over cone cuts of up to 15 inputs). When t
// ranges over nearly as many variables as the result, per-minterm
// evaluation is the cheaper one. Neither t nor the substitutions are
// modified. (Simulating a whole cone of gates is cheaper still with
// Compiled, which evaluates each gate in one pass.)
func (t *TT) Compose(subs []*TT) *TT {
	if len(subs) != t.nvar {
		panic("logic: Compose: need one substitution per variable")
	}
	if t.nvar == 0 {
		panic("logic: Compose on 0-var table")
	}
	nv := subs[0].nvar
	for _, s := range subs {
		if s.nvar != nv {
			panic("logic: Compose: substitutions over different variable sets")
		}
	}
	negs := make([]*TT, len(subs))
	var rec func(f *TT) *TT
	rec = func(f *TT) *TT {
		if c, v := f.IsConst(); c {
			return Const(nv, v)
		}
		j := -1
		for i := 0; i < f.nvar; i++ {
			if f.DependsOn(i) {
				j = i
				break
			}
		}
		// One scratch table serves both cofactors: rec is done with it by
		// the time it returns.
		f0 := f.Cofactor(j, false)
		r0 := rec(f0)
		f0.CopyFrom(f).CofactorInPlace(j, true)
		r1 := rec(f0)
		if negs[j] == nil {
			negs[j] = NewTT(nv).Not(subs[j])
		}
		r0.And(negs[j], r0)
		return r0.Or(r0, r1.And(subs[j], r1))
	}
	return rec(t)
}
