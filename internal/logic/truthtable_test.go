package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randomTT builds a random table over nvar variables.
func randomTT(rng *rand.Rand, nvar int) *TT {
	t := NewTT(nvar)
	for i := range t.words {
		t.words[i] = rng.Uint64()
	}
	t.words[len(t.words)-1] &= mask(nvar)
	if nvar < 6 {
		t.words[0] &= mask(nvar)
	}
	return t
}

func TestConstAndVarSmall(t *testing.T) {
	for nvar := 0; nvar <= 4; nvar++ {
		zero := Const(nvar, false)
		one := Const(nvar, true)
		for i := 0; i < 1<<nvar; i++ {
			if zero.Bit(i) {
				t.Errorf("Const(%d,false) bit %d set", nvar, i)
			}
			if !one.Bit(i) {
				t.Errorf("Const(%d,true) bit %d clear", nvar, i)
			}
		}
	}
	for nvar := 1; nvar <= 8; nvar++ {
		for v := 0; v < nvar; v++ {
			x := Var(nvar, v)
			for i := 0; i < 1<<nvar; i++ {
				want := i&(1<<v) != 0
				if x.Bit(i) != want {
					t.Fatalf("Var(%d,%d) at %d = %v, want %v", nvar, v, i, x.Bit(i), want)
				}
			}
		}
	}
}

func TestVarLargeIndices(t *testing.T) {
	// Exercise the multi-word path (variables >= 6).
	for _, nvar := range []int{7, 9, 12} {
		for v := 6; v < nvar; v++ {
			x := Var(nvar, v)
			for trial := 0; trial < 200; trial++ {
				i := trial * 997 % (1 << nvar)
				want := i&(1<<v) != 0
				if x.Bit(i) != want {
					t.Fatalf("Var(%d,%d) at %d wrong", nvar, v, i)
				}
			}
		}
	}
}

func TestBoolOps(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, nvar := range []int{2, 5, 6, 8, 10} {
		a, b := randomTT(rng, nvar), randomTT(rng, nvar)
		and := NewTT(nvar).And(a, b)
		or := NewTT(nvar).Or(a, b)
		xor := NewTT(nvar).Xor(a, b)
		na := NewTT(nvar).Not(a)
		for i := 0; i < 1<<nvar; i++ {
			av, bv := a.Bit(i), b.Bit(i)
			if and.Bit(i) != (av && bv) {
				t.Fatalf("and wrong at %d", i)
			}
			if or.Bit(i) != (av || bv) {
				t.Fatalf("or wrong at %d", i)
			}
			if xor.Bit(i) != (av != bv) {
				t.Fatalf("xor wrong at %d", i)
			}
			if na.Bit(i) != !av {
				t.Fatalf("not wrong at %d", i)
			}
		}
	}
}

// TestBoolOpsAliasing: And, Or and Xor give the same result when the
// destination aliases either operand or both.
func TestBoolOpsAliasing(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ops := map[string]func(t, a, b *TT) *TT{
		"and": (*TT).And, "or": (*TT).Or, "xor": (*TT).Xor,
	}
	for _, nvar := range []int{0, 3, 6, 9} {
		a, b := randomTT(rng, nvar), randomTT(rng, nvar)
		for name, op := range ops {
			want := op(NewTT(nvar), a, b)
			if got := op(a.Clone(), a.Clone(), b); !got.Equal(want) {
				t.Fatalf("%s n=%d: fresh destination differs", name, nvar)
			}
			x := a.Clone()
			if op(x, x, b); !x.Equal(want) {
				t.Fatalf("%s n=%d: destination aliasing a differs", name, nvar)
			}
			y := b.Clone()
			if op(y, a, y); !y.Equal(want) {
				t.Fatalf("%s n=%d: destination aliasing b differs", name, nvar)
			}
			z := a.Clone()
			if op(z, z, z); !z.Equal(op(NewTT(nvar), a, a)) {
				t.Fatalf("%s n=%d: destination aliasing both differs", name, nvar)
			}
		}
	}
}

func TestNotKeepsPaddingClean(t *testing.T) {
	// Double negation of a small table must not pollute padding bits,
	// otherwise Equal comparisons break.
	a, err := FromBits(2, "0110")
	if err != nil {
		t.Fatal(err)
	}
	b := NewTT(2).Not(a)
	c := NewTT(2).Not(b)
	if !c.Equal(a) {
		t.Fatalf("double negation changed table: %s vs %s", c, a)
	}
	if b.words[0]&^mask(2) != 0 {
		t.Fatal("padding bits polluted by Not")
	}
}

func TestIsConstAndCountOnes(t *testing.T) {
	for _, nvar := range []int{0, 3, 6, 9} {
		if c, v := Const(nvar, true).IsConst(); !c || !v {
			t.Errorf("Const(%d,true) not detected", nvar)
		}
		if c, v := Const(nvar, false).IsConst(); !c || v {
			t.Errorf("Const(%d,false) not detected", nvar)
		}
		if Const(nvar, true).CountOnes() != 1<<nvar {
			t.Errorf("CountOnes of const true wrong for nvar=%d", nvar)
		}
	}
	if c, _ := Var(4, 2).IsConst(); c {
		t.Error("Var misdetected as const")
	}
	if got := Var(4, 2).CountOnes(); got != 8 {
		t.Errorf("Var(4,2).CountOnes() = %d, want 8", got)
	}
}

func TestCofactorAgainstEval(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, nvar := range []int{3, 6, 7, 9} {
		f := randomTT(rng, nvar)
		for v := 0; v < nvar; v++ {
			for _, val := range []bool{false, true} {
				cf := f.Cofactor(v, val)
				for trial := 0; trial < 128; trial++ {
					i := rng.Intn(1 << nvar)
					j := i &^ (1 << v)
					if val {
						j |= 1 << v
					}
					if cf.Bit(i) != f.Bit(j) {
						t.Fatalf("nvar=%d cofactor var %d val %v wrong at %d", nvar, v, val, i)
					}
				}
				if cf.DependsOn(v) {
					t.Fatalf("cofactor still depends on var %d", v)
				}
			}
		}
	}
}

func TestShannonExpansion(t *testing.T) {
	// f = x_v ? f1 : f0 for every variable — a full functional identity.
	f := func(seed int64, nvarRaw uint8, vRaw uint8) bool {
		nvar := 1 + int(nvarRaw)%9
		v := int(vRaw) % nvar
		rng := rand.New(rand.NewSource(seed))
		tt := randomTT(rng, nvar)
		f0 := tt.Cofactor(v, false)
		f1 := tt.Cofactor(v, true)
		x := Var(nvar, v)
		nx := NewTT(nvar).Not(x)
		lhs := NewTT(nvar).And(x, f1)
		rhs := NewTT(nvar).And(nx, f0)
		return NewTT(nvar).Or(lhs, rhs).Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSupport(t *testing.T) {
	f := NewTT(5).And(Var(5, 1), Var(5, 3))
	s := f.Support()
	if len(s) != 2 || s[0] != 1 || s[1] != 3 {
		t.Fatalf("support = %v, want [1 3]", s)
	}
	if n := f.SupportSize(); n != 2 {
		t.Fatalf("SupportSize = %d, want 2", n)
	}
	if n := Const(7, true).SupportSize(); n != 0 {
		t.Fatalf("constant SupportSize = %d, want 0", n)
	}
}

// TestDependsOnMatchesCofactors checks the in-place DependsOn against its
// definition, two cofactor clones compared for equality, for every variable
// of random tables of every size. Besides plain random tables (which depend
// on every variable), each variable is also tried on a table made
// independent of it and on one whose cofactors then differ in a single bit.
func TestDependsOnMatchesCofactors(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	check := func(f *TT, v int) {
		t.Helper()
		want := !f.Cofactor(v, false).Equal(f.Cofactor(v, true))
		if got := f.DependsOn(v); got != want {
			t.Fatalf("nvar=%d var %d: DependsOn = %v, cofactors differ = %v", f.nvar, v, got, want)
		}
	}
	for nvar := 0; nvar <= MaxVars; nvar++ {
		for trial := 0; trial < 4; trial++ {
			f := randomTT(rng, nvar)
			for v := 0; v < nvar; v++ {
				check(f, v)
				g := f.Cofactor(v, trial%2 == 1)
				check(g, v)
				bit := rng.Intn(g.NumBits())
				g.SetBit(bit, !g.Bit(bit))
				check(g, v)
			}
		}
	}
}

func TestDependsOnZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	small, large := randomTT(rng, 5), randomTT(rng, 12)
	allocs := testing.AllocsPerRun(100, func() {
		for v := 0; v < 5; v++ {
			small.DependsOn(v)
		}
		for v := 0; v < 12; v++ {
			large.DependsOn(v)
		}
		large.SupportSize()
	})
	if allocs != 0 {
		t.Fatalf("DependsOn/SupportSize allocate %.1f objects/run, want 0", allocs)
	}
}

// expand returns t over nvar variables, variable j of t becoming variable
// varMap[j] of the result, by composing t with projections.
func expand(t *TT, nvar int, varMap []int) *TT {
	subs := make([]*TT, len(varMap))
	for j, v := range varMap {
		subs[j] = Var(nvar, v)
	}
	return t.Compose(subs)
}

func TestExpand(t *testing.T) {
	// xor(a,b) over 2 vars, embedded as vars 4 and 1 of a 5-var space.
	f := XorAll(2)
	g := expand(f, 5, []int{4, 1})
	for i := 0; i < 32; i++ {
		a := i&(1<<4) != 0
		b := i&(1<<1) != 0
		if g.Bit(i) != (a != b) {
			t.Fatalf("expand wrong at %d", i)
		}
	}
}

// referenceExpand is the bit-serial definition of expand: bit i of the
// result is t at the assignment whose bit j is bit varMap[j] of i.
func referenceExpand(t *TT, nvar int, varMap []int) *TT {
	r := NewTT(nvar)
	for i := 0; i < r.NumBits(); i++ {
		var j uint
		for k, m := range varMap {
			if i&(1<<uint(m)) != 0 {
				j |= 1 << uint(k)
			}
		}
		r.SetBit(i, t.Eval(j))
	}
	return r
}

// TestExpandMatchesPointwise: composing with projections equals the
// bit-serial definition of expansion for random tables and random injective
// maps, from 1..10 variables into up to MaxVars.
func TestExpandMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		nvar := 1 + rng.Intn(MaxVars)
		k := 1 + rng.Intn(min(nvar, 10))
		f := randomTT(rng, k)
		varMap := rng.Perm(nvar)[:k]
		if got, want := expand(f, nvar, varMap), referenceExpand(f, nvar, varMap); !got.Equal(want) {
			t.Fatalf("%d vars into %d via %v: expansion differs", k, nvar, varMap)
		}
	}
}

// TestBlocksMatchBits: BlocksEqual and CopyBlock against bit-level models
// on every block of every width, which includes the sub-word blocks just
// below and above each word boundary.
func TestBlocksMatchBits(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, nvar := range []int{0, 3, 6, 7, 9} {
		f := randomTT(rng, nvar)
		// Duplicate some blocks so BlocksEqual also sees equal pairs.
		for m := 0; m <= nvar; m++ {
			nblocks := 1 << uint(nvar-m)
			g := f.Clone()
			for i := 0; i < nblocks; i += 3 {
				g.CopyBlock(m, i, f, nblocks-1-i)
				for b := 0; b < 1<<uint(m); b++ {
					if g.Bit(i<<uint(m)+b) != f.Bit((nblocks-1-i)<<uint(m)+b) {
						t.Fatalf("n=%d m=%d: CopyBlock(%d) wrong at bit %d", nvar, m, i, b)
					}
				}
			}
			for i := 0; i < nblocks; i++ {
				for j := 0; j < nblocks; j++ {
					want := true
					for b := 0; b < 1<<uint(m); b++ {
						if g.Bit(i<<uint(m)+b) != g.Bit(j<<uint(m)+b) {
							want = false
							break
						}
					}
					if got := g.BlocksEqual(m, i, j); got != want {
						t.Fatalf("n=%d m=%d: BlocksEqual(%d, %d) = %v", nvar, m, i, j, got)
					}
				}
			}
		}
	}
	// Copying across variable counts: a block of a wide table into a narrow
	// one (the truncation projectTT uses) and back, leaving other bits alone.
	for _, m := range []int{0, 2, 5, 6, 8} {
		wide := randomTT(rng, 10)
		narrow := randomTT(rng, m)
		before := wide.Clone()
		blk := rng.Intn(1 << uint(10-m))
		narrow.CopyBlock(m, 0, wide, blk)
		for b := 0; b < 1<<uint(m); b++ {
			if narrow.Bit(b) != wide.Bit(blk<<uint(m)+b) {
				t.Fatalf("m=%d: narrow copy of block %d wrong at bit %d", m, blk, b)
			}
		}
		narrow.Not(narrow)
		wide.CopyBlock(m, blk, narrow, 0)
		for i := 0; i < wide.NumBits(); i++ {
			want := before.Bit(i)
			if i>>uint(m) == blk {
				want = !want
			}
			if wide.Bit(i) != want {
				t.Fatalf("m=%d: write-back of block %d wrong at bit %d", m, blk, i)
			}
		}
		if m < 6 && narrow.words[0]&^mask(m) != 0 {
			t.Fatalf("m=%d: padding bits set", m)
		}
	}
}

// composeBitSerial is the definition Compose must meet, evaluated one
// result minterm at a time: bit i of the result is t at the assignment
// whose bit k is subs[k] at minterm i.
func composeBitSerial(t *TT, subs []*TT) *TT {
	r := NewTT(subs[0].nvar)
	for i := 0; i < r.NumBits(); i++ {
		var j uint
		for k, s := range subs {
			if s.Bit(i) {
				j |= 1 << uint(k)
			}
		}
		if t.Eval(j) {
			r.SetBit(i, true)
		}
	}
	return r
}

func TestCompose(t *testing.T) {
	// g(y0,y1) = y0 AND y1; y0 = x0 XOR x1, y1 = x2. Result over 3 vars.
	g := AndAll(2)
	y0 := NewTT(3).Xor(Var(3, 0), Var(3, 1))
	y1 := Var(3, 2)
	h := g.Compose([]*TT{y0, y1})
	for i := 0; i < 8; i++ {
		want := ((i&1 != 0) != (i&2 != 0)) && i&4 != 0
		if h.Bit(i) != want {
			t.Fatalf("compose wrong at %d", i)
		}
	}
	// The word-parallel composition against the bit-serial definition.
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 300; round++ {
		k := 1 + rng.Intn(6)
		nv := 1 + rng.Intn(10)
		f := randTT(rng, k)
		subs := make([]*TT, k)
		for i := range subs {
			subs[i] = randTT(rng, nv)
		}
		if got, want := f.Compose(subs), composeBitSerial(f, subs); !got.Equal(want) {
			t.Fatalf("round %d: Compose diverged from the bit-serial definition\nwant %s\ngot  %s", round, want, got)
		}
	}
}

func TestGates(t *testing.T) {
	if got := AndAll(3).CountOnes(); got != 1 {
		t.Errorf("AndAll(3) ones = %d", got)
	}
	if got := OrAll(3).CountOnes(); got != 7 {
		t.Errorf("OrAll(3) ones = %d", got)
	}
	if got := XorAll(4).CountOnes(); got != 8 {
		t.Errorf("XorAll(4) ones = %d", got)
	}
	if !NandAll(2).Equal(NewTT(2).Not(AndAll(2))) {
		t.Error("NandAll mismatch")
	}
	if !NorAll(2).Equal(NewTT(2).Not(OrAll(2))) {
		t.Error("NorAll mismatch")
	}
	mux := Mux21()
	for i := 0; i < 8; i++ {
		a, b, s := i&1 != 0, i&2 != 0, i&4 != 0
		want := a
		if s {
			want = b
		}
		if mux.Bit(i) != want {
			t.Fatalf("mux wrong at %d", i)
		}
	}
	if !Inv().Equal(NewTT(1).Not(Buf())) {
		t.Error("Inv != NOT Buf")
	}
}

func TestFromBitsAndString(t *testing.T) {
	f, err := FromBits(2, "0110")
	if err != nil {
		t.Fatal(err)
	}
	if !f.Equal(XorAll(2)) {
		t.Error("0110 should be XOR")
	}
	if f.String() != "0110" {
		t.Errorf("round trip: %s", f.String())
	}
	if _, err := FromBits(2, "01"); err == nil {
		t.Error("length mismatch not rejected")
	}
	if _, err := FromBits(1, "2x"); err == nil {
		t.Error("bad chars not rejected")
	}
}

func TestPanics(t *testing.T) {
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("NewTT too big", func() { NewTT(MaxVars + 1) })
	assertPanics("NewTT negative", func() { NewTT(-1) })
	assertPanics("Var out of range", func() { Var(3, 3) })
	assertPanics("mixed sizes", func() { NewTT(3).And(NewTT(3), NewTT(4)) })
	assertPanics("cofactor out of range", func() { NewTT(2).Cofactor(5, true) })
	assertPanics("DependsOn out of range", func() { NewTT(2).DependsOn(2) })
	assertPanics("block out of range", func() { NewTT(3).BlocksEqual(2, 0, 2) })
	assertPanics("block wider than table", func() { NewTT(3).CopyBlock(4, 0, NewTT(5), 0) })
}

func BenchmarkAnd10Var(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := randomTT(rng, 10), randomTT(rng, 10)
	out := NewTT(10)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out.And(x, y)
	}
}

func BenchmarkCofactor15Var(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := randomTT(rng, 15)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = x.Cofactor(i%15, i&1 == 0)
	}
}
