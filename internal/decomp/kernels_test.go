package decomp

import (
	"fmt"
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
)

// referenceRothKarp is the bit-serial Roth–Karp extraction RothKarp must
// match bit for bit: one Eval per table bit, columns keyed by their bytes,
// classes numbered in order of first appearance.
func referenceRothKarp(f *logic.TT, boundSet []int, maxCodeBits int) (*RothKarpResult, bool) {
	n := f.NumVars()
	k := len(boundSet)
	if k == 0 || k >= n {
		return nil, false
	}
	seen := make(map[int]bool, k)
	for _, v := range boundSet {
		seen[v] = true
	}
	var freeSet []int
	for v := 0; v < n; v++ {
		if !seen[v] {
			freeSet = append(freeSet, v)
		}
	}
	nb := len(freeSet)
	classOf, reps := referenceColumns(f, boundSet, freeSet)
	mu := len(reps)
	e := 0
	for 1<<uint(e) < mu {
		e++
	}
	if e == 0 {
		e = 1
	}
	if maxCodeBits > 0 && e > maxCodeBits {
		return nil, false
	}
	res := &RothKarpResult{BoundSet: boundSet, FreeSet: freeSet}
	for i := 0; i < e; i++ {
		alpha := logic.NewTT(k)
		for a := 0; a < 1<<uint(k); a++ {
			if classOf[a]&(1<<uint(i)) != 0 {
				alpha.SetBit(a, true)
			}
		}
		res.Alphas = append(res.Alphas, alpha)
	}
	g := logic.NewTT(e + nb)
	for idx := 0; idx < g.NumBits(); idx++ {
		code := idx & (1<<uint(e) - 1)
		b := idx >> uint(e)
		if code >= mu {
			continue
		}
		if reps[code][b>>3]&(1<<uint(b&7)) != 0 {
			g.SetBit(idx, true)
		}
	}
	res.G = g
	return res, true
}

// referenceColumns is the bit-serial column scan of referenceRothKarp: the
// class of every bound assignment (numbered in order of first appearance)
// and each class's column, one Eval per table bit, one byte per 8 free
// assignments.
func referenceColumns(f *logic.TT, boundSet, freeSet []int) (classOf []int, reps []string) {
	k, nb := len(boundSet), len(freeSet)
	classOf = make([]int, 1<<uint(k))
	patterns := make(map[string]int)
	var buf []byte
	for a := 0; a < 1<<uint(k); a++ {
		buf = buf[:0]
		var base uint
		for j, v := range boundSet {
			if a&(1<<uint(j)) != 0 {
				base |= 1 << uint(v)
			}
		}
		var word byte
		for b := 0; b < 1<<uint(nb); b++ {
			x := base
			for j, v := range freeSet {
				if b&(1<<uint(j)) != 0 {
					x |= 1 << uint(v)
				}
			}
			if f.Eval(x) {
				word |= 1 << uint(b&7)
			}
			if b&7 == 7 || b == 1<<uint(nb)-1 {
				buf = append(buf, word)
				word = 0
			}
		}
		key := string(buf)
		id, ok := patterns[key]
		if !ok {
			id = len(reps)
			patterns[key] = id
			reps = append(reps, key)
		}
		classOf[a] = id
	}
	return classOf, reps
}

// referenceColumnCount is the column multiplicity of f under
// boundSet, counted bit-serially: the number of distinct subfunctions over
// the remaining variables as the bound variables range over all
// assignments.
func referenceColumnCount(f *logic.TT, boundSet []int) int {
	bound := make(map[int]bool, len(boundSet))
	for _, v := range boundSet {
		bound[v] = true
	}
	var freeSet []int
	for v := 0; v < f.NumVars(); v++ {
		if !bound[v] {
			freeSet = append(freeSet, v)
		}
	}
	_, reps := referenceColumns(f, boundSet, freeSet)
	return len(reps)
}

// referenceProjectTT is the bit-serial projectTT: bit i of the result is f
// with variable vars[j] set to bit j of i and every other variable 0.
func referenceProjectTT(f *logic.TT, vars []int) *logic.TT {
	shrunk := logic.NewTT(len(vars))
	for i := 0; i < shrunk.NumBits(); i++ {
		var x uint
		for j, v := range vars {
			if i&(1<<uint(j)) != 0 {
				x |= 1 << uint(v)
			}
		}
		if f.Eval(x) {
			shrunk.SetBit(i, true)
		}
	}
	return shrunk
}

// sameRothKarp describes the first difference between two RothKarp
// outcomes, or returns "" when they agree bit for bit.
func sameRothKarp(got *RothKarpResult, gotOK bool, want *RothKarpResult, wantOK bool) string {
	if gotOK != wantOK {
		return fmt.Sprintf("ok = %v, want %v", gotOK, wantOK)
	}
	if !gotOK {
		return ""
	}
	if fmt.Sprint(got.BoundSet) != fmt.Sprint(want.BoundSet) || fmt.Sprint(got.FreeSet) != fmt.Sprint(want.FreeSet) {
		return fmt.Sprintf("sets %v/%v, want %v/%v", got.BoundSet, got.FreeSet, want.BoundSet, want.FreeSet)
	}
	if len(got.Alphas) != len(want.Alphas) {
		return fmt.Sprintf("%d alphas, want %d", len(got.Alphas), len(want.Alphas))
	}
	for i := range got.Alphas {
		if !got.Alphas[i].Equal(want.Alphas[i]) {
			return fmt.Sprintf("alpha %d = %s, want %s", i, got.Alphas[i], want.Alphas[i])
		}
	}
	if !got.G.Equal(want.G) {
		return "G differs"
	}
	return ""
}

// decomposableTT builds f = G(alphas(bound), free) over n variables with e
// random alphas, so RothKarp succeeds on bound with maxCodeBits >= e.
func decomposableTT(rng *rand.Rand, n int, bound []int, e int) *logic.TT {
	var free []int
	in := make([]bool, n)
	for _, v := range bound {
		in[v] = true
	}
	for v := 0; v < n; v++ {
		if !in[v] {
			free = append(free, v)
		}
	}
	subs := make([]*logic.TT, 0, e+len(free))
	for i := 0; i < e; i++ {
		subs = append(subs, expand(randomTT(rng, len(bound)), n, bound))
	}
	for _, v := range free {
		subs = append(subs, logic.Var(n, v))
	}
	return randomTT(rng, e+len(free)).Compose(subs)
}

// TestRothKarpMatchesReference: on random and decomposable tables of 2..16
// variables, every bound-set size 1..min(5, n-1) and every code limit, the
// word-parallel RothKarp returns exactly what the bit-serial reference
// does. The free-set width nb = n - size covers nb < 6, nb = 6 and nb > 6.
func TestRothKarpMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	widths := map[string]bool{}
	for n := 2; n <= logic.MaxVars; n++ {
		tables := 3
		if n > 12 && testing.Short() {
			tables = 1
		}
		for iter := 0; iter < tables; iter++ {
			for size := 1; size <= min(5, n-1); size++ {
				bound := rng.Perm(n)[:size]
				f := randomTT(rng, n)
				if iter > 0 {
					f = decomposableTT(rng, n, bound, 1+rng.Intn(size))
				}
				nb := n - size
				switch {
				case nb < 6:
					widths["nb<6"] = true
				case nb == 6:
					widths["nb=6"] = true
				default:
					widths["nb>6"] = true
				}
				for maxCode := 0; maxCode < size; maxCode++ {
					got, gotOK := RothKarp(f, bound, maxCode)
					want, wantOK := referenceRothKarp(f, bound, maxCode)
					if d := sameRothKarp(got, gotOK, want, wantOK); d != "" {
						t.Fatalf("n=%d bound=%v maxCodeBits=%d: %s", n, bound, maxCode, d)
					}
					if gotOK && !got.Verify(f) {
						t.Fatalf("n=%d bound=%v maxCodeBits=%d: Verify failed", n, bound, maxCode)
					}
				}
			}
		}
	}
	if len(widths) != 3 {
		t.Fatalf("free-set widths covered: %v", widths)
	}
}

// TestProjectTTMatchesReference: random tables, random (unsorted) variable
// subsets; the reordering projectTT equals the bit-serial definition, also
// when f depends on variables outside the subset (both read them as 0).
func TestProjectTTMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for n := 1; n <= logic.MaxVars; n++ {
		for iter := 0; iter < 4; iter++ {
			f := randomTT(rng, n)
			vars := rng.Perm(n)[:rng.Intn(n+1)]
			if iter == 0 {
				vars = f.Support() // sorted, the support-normalization case
			}
			if got, want := projectTT(f, vars), referenceProjectTT(f, vars); !got.Equal(want) {
				t.Fatalf("n=%d vars=%v: projection differs", n, vars)
			}
		}
	}
}

// referenceAssocShape is the recognition associativeTree used before the
// closed forms: build each wide gate and compare.
func referenceAssocShape(f *logic.TT) (mk func(int) *logic.TT, invert, ok bool) {
	m := f.NumVars()
	switch {
	case f.Equal(logic.AndAll(m)):
		return logic.AndAll, false, true
	case f.Equal(logic.OrAll(m)):
		return logic.OrAll, false, true
	case f.Equal(logic.NandAll(m)):
		return logic.AndAll, true, true
	case f.Equal(logic.NorAll(m)):
		return logic.OrAll, true, true
	}
	if _, inv, ok := f.IsParity(); ok {
		return logic.XorAll, inv, true
	}
	return nil, false, false
}

// TestAssocShapeMatchesDefinitions: for m = 3..16 the closed-form shape
// recognition agrees with the gate definitions on every shape, on every
// shape with one bit flipped (first, last and a random bit) and on random
// tables.
func TestAssocShapeMatchesDefinitions(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for m := 3; m <= logic.MaxVars; m++ {
		shapes := []*logic.TT{
			logic.AndAll(m), logic.OrAll(m), logic.NandAll(m), logic.NorAll(m),
			logic.XorAll(m), logic.NewTT(m).Not(logic.XorAll(m)),
			logic.Const(m, false), logic.Const(m, true),
		}
		var cases []*logic.TT
		for _, s := range shapes {
			cases = append(cases, s)
			for _, b := range []int{0, s.NumBits() - 1, rng.Intn(s.NumBits())} {
				c := s.Clone()
				c.SetBit(b, !c.Bit(b))
				cases = append(cases, c)
			}
		}
		cases = append(cases, randomTT(rng, m))
		for i, f := range cases {
			mk, inv, ok := assocShape(f)
			rmk, rinv, rok := referenceAssocShape(f)
			if ok != rok || inv != rinv || (ok && !mk(m).Equal(rmk(m))) {
				t.Fatalf("m=%d case %d: shape (ok=%v inv=%v) differs from definition (ok=%v inv=%v)",
					m, i, ok, inv, rok, rinv)
			}
		}
	}
}

// FuzzRothKarp turns bytes into a table of 2..10 variables and a bound set,
// and checks RothKarp against the bit-serial reference and Verify.
func FuzzRothKarp(f *testing.F) {
	f.Add(uint8(3), uint8(0x05), uint8(1), []byte{0x96})
	f.Add(uint8(6), uint8(0x07), uint8(2), []byte{0x80, 0x01, 0xfe, 0x7f, 0x00, 0xff, 0x18, 0x81})
	f.Add(uint8(8), uint8(0xf0), uint8(3), []byte("roth-karp word-parallel columns"))
	f.Add(uint8(10), uint8(0x2a), uint8(0), []byte{0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(7), uint8(0x41), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, nRaw, boundMask, maxCode uint8, data []byte) {
		n := 2 + int(nRaw)%9
		tt := logic.NewTT(n)
		if len(data) > 0 {
			for i := 0; i < tt.NumBits(); i++ {
				if data[i/8%len(data)]>>uint(i%8)&1 == 1 {
					tt.SetBit(i, true)
				}
			}
		}
		// Bound set: the mask's bits (in a data-driven rotation so the set
		// is not always sorted), capped below n variables.
		var bound []int
		for j := 0; j < n && len(bound) < n-1; j++ {
			v := (j + int(nRaw)) % n
			if boundMask>>uint(v%8)&1 == 1 {
				bound = append(bound, v)
			}
		}
		mc := int(maxCode) % 6
		got, gotOK := RothKarp(tt, bound, mc)
		want, wantOK := referenceRothKarp(tt, bound, mc)
		if d := sameRothKarp(got, gotOK, want, wantOK); d != "" {
			t.Fatalf("n=%d bound=%v maxCodeBits=%d: %s", n, bound, mc, d)
		}
		if gotOK && !got.Verify(tt) {
			t.Fatalf("n=%d bound=%v maxCodeBits=%d: Verify failed", n, bound, mc)
		}
	})
}

// TestTreeTTMatchesEval: the word-parallel Tree.TT equals the tree's
// bit-serial evaluation on decomposed random functions and constants.
func TestTreeTTMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var trees []*Tree
	for _, v := range []bool{false, true} {
		if tr, ok, _ := DecomposeEffort(logic.Const(3, v), 3, 1, nil, Effort{}); ok {
			trees = append(trees, tr)
		}
	}
	for len(trees) < 30 {
		n := 5 + rng.Intn(4)
		if tr, ok, _ := DecomposeEffort(randomTT(rng, n), 4, 4, rng.Perm(n), Effort{}); ok {
			trees = append(trees, tr)
		}
	}
	for i, tr := range trees {
		got := tr.TT()
		for a := 0; a < got.NumBits(); a++ {
			if got.Bit(a) != tr.Eval(uint(a)) {
				t.Fatalf("tree %d: TT differs from Eval at assignment %d", i, a)
			}
		}
	}
}
