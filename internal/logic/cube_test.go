package logic

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// TT materializes the cube as a truth table over nvar variables.
func (q Cube) TT(nvar int) *TT {
	t := Const(nvar, true)
	for i := 0; i < nvar; i++ {
		if q.Care&(1<<uint(i)) == 0 {
			continue
		}
		x := Var(nvar, i)
		if q.Pol&(1<<uint(i)) == 0 {
			x.Not(x)
		}
		t.And(t, x)
	}
	return t
}

// CoverTT returns the disjunction of the cubes over nvar variables: the
// oracle ISOP's exactness is checked against.
func CoverTT(nvar int, cover []Cube) *TT {
	t := Const(nvar, false)
	for _, q := range cover {
		t.Or(t, q.TT(nvar))
	}
	return t
}

func TestCubeTT(t *testing.T) {
	// x0 AND !x2 over 3 vars.
	q := Cube{Care: 0b101, Pol: 0b001}
	tt := q.TT(3)
	for i := 0; i < 8; i++ {
		want := i&1 != 0 && i&4 == 0
		if tt.Bit(i) != want {
			t.Fatalf("cube wrong at %d", i)
		}
	}
	if c, v := (Cube{}).TT(3).IsConst(); !c || !v {
		t.Fatal("empty cube must be tautology")
	}
}

func TestISOPExactQuick(t *testing.T) {
	f := func(seed int64, nvarRaw uint8) bool {
		nvar := 1 + int(nvarRaw)%8
		rng := rand.New(rand.NewSource(seed))
		tt := randomTT(rng, nvar)
		cover := ISOP(tt)
		return CoverTT(nvar, cover).Equal(tt)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestISOPCompact(t *testing.T) {
	// 8-input AND: one cube, not 1 minterm... the minterm count equals 1
	// here, so use OR: 8-input OR must be 8 single-literal cubes, far fewer
	// than its 255 minterms.
	cover := ISOP(OrAll(8))
	if len(cover) != 8 {
		t.Fatalf("OR cover size = %d, want 8", len(cover))
	}
	for _, q := range cover {
		if bits.OnesCount32(q.Care) != 1 {
			t.Fatalf("OR cube not a single literal: %+v", q)
		}
	}
	cover = ISOP(AndAll(8))
	if len(cover) != 1 || bits.OnesCount32(cover[0].Care) != 8 {
		t.Fatalf("AND cover wrong: %v", cover)
	}
	if got := len(ISOP(Const(5, false))); got != 0 {
		t.Fatalf("const-0 cover size %d", got)
	}
	if got := ISOP(Const(5, true)); len(got) != 1 || got[0].Care != 0 {
		t.Fatalf("const-1 cover %v", got)
	}
}

func TestIsParity(t *testing.T) {
	if s, inv, ok := XorAll(5).IsParity(); !ok || inv || len(s) != 5 {
		t.Fatal("XorAll not recognized")
	}
	x := XorAll(4)
	if s, inv, ok := NewTT(4).Not(x).IsParity(); !ok || !inv || len(s) != 4 {
		t.Fatal("XNOR not recognized")
	}
	// Parity of a subset embedded in more variables.
	f := NewTT(6).Xor(Var(6, 1), Var(6, 4))
	if s, inv, ok := f.IsParity(); !ok || inv || len(s) != 2 || s[0] != 1 || s[1] != 4 {
		t.Fatalf("embedded parity: %v %v %v", s, inv, ok)
	}
	if _, _, ok := AndAll(3).IsParity(); ok {
		t.Fatal("AND misdetected as parity")
	}
	// Constants have no support to reduce over: not parities.
	for _, n := range []int{0, 1, 7} {
		for _, v := range []bool{false, true} {
			if s, inv, ok := Const(n, v).IsParity(); ok {
				t.Fatalf("Const(%d, %v) reported as parity %v inv=%v", n, v, s, inv)
			}
		}
	}
}
