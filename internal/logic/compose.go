package logic

// ComposeBoolPool substitutes functions for variables like Compose, but runs
// word-parallel over the substituted tables via Shannon expansion of t:
//
//	t = ~x_j·t0 + x_j·t1  =>  result = (~subs[j] AND compose(t0)) OR
//	                                    (subs[j] AND compose(t1))
//
// Cost is O(2^support(t) * words(result)) instead of the bit-serial
// O(2^result * support(t)) of Compose — the difference matters when the
// result ranges over many variables (cone functions over wide cuts).
//
// Every transient table — Shannon cofactors, negated substitutions, the
// per-level partial results — is drawn from and returned to p. The result
// itself is also pool-owned: the caller must Put it back (or Clone it out)
// when done. With a nil pool every table, the result included, is owned by
// the garbage collector.
func (t *TT) ComposeBoolPool(subs []*TT, p *TTPool) *TT {
	if len(subs) != t.nvar {
		panic("logic: ComposeBoolPool: need one substitution per variable")
	}
	if t.nvar == 0 {
		panic("logic: ComposeBoolPool on 0-var table")
	}
	nv := subs[0].nvar
	for _, s := range subs {
		if s.nvar != nv {
			panic("logic: ComposeBoolPool: substitutions over different variable sets")
		}
	}
	negs := make([]*TT, len(subs))
	var rec func(f *TT) *TT
	rec = func(f *TT) *TT {
		if c, v := f.IsConst(); c {
			return p.Get(nv).SetConst(v)
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
		f0 := p.Get(f.nvar).CopyFrom(f)
		f0.CofactorInPlace(j, false)
		r0 := rec(f0)
		f0.CopyFrom(f)
		f0.CofactorInPlace(j, true)
		r1 := rec(f0)
		p.Put(f0)
		if negs[j] == nil {
			negs[j] = p.Get(nv).Not(subs[j])
		}
		lo := p.Get(nv).And(negs[j], r0)
		hi := p.Get(nv).And(subs[j], r1)
		lo.Or(lo, hi)
		p.Put(hi)
		p.Put(r0)
		p.Put(r1)
		return lo
	}
	out := rec(t)
	for _, n := range negs {
		p.Put(n)
	}
	return out
}
