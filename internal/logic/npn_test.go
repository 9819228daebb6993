package logic

import (
	"math/rand"
	"testing"
)

// applyPointwise computes tr applied to f by direct evaluation of the
// defining equation g(v) = f(u) ^ b, u_i = v_{perm[i]} ^ a_i — an
// implementation independent of the word-parallel Apply under test.
func applyPointwise(f *TT, tr NPNTransform) *TT {
	n := f.NumVars()
	g := NewTT(n)
	for v := 0; v < g.NumBits(); v++ {
		var u uint
		for i := 0; i < n; i++ {
			bit := uint(v)>>uint(tr.Perm[i])&1 ^ uint(tr.InputNeg)>>uint(i)&1
			u |= bit << uint(i)
		}
		val := f.Eval(u)
		if tr.OutputNeg {
			val = !val
		}
		g.SetBit(v, val)
	}
	return g
}

func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, sub := range permutations(n - 1) {
		for pos := 0; pos <= len(sub); pos++ {
			p := make([]int, 0, n)
			p = append(p, sub[:pos]...)
			p = append(p, n-1)
			p = append(p, sub[pos:]...)
			out = append(out, p)
		}
	}
	return out
}

// orbitMin brute-forces the minimal table value over f's whole NPN orbit.
func orbitMin(f *TT) uint64 {
	n := f.NumVars()
	best := ^uint64(0)
	first := true
	for _, perm := range permutations(n) {
		for neg := 0; neg < 1<<uint(n); neg++ {
			for out := 0; out < 2; out++ {
				g := applyPointwise(f, NPNTransform{Perm: perm, InputNeg: uint32(neg), OutputNeg: out == 1})
				var w uint64
				for i := 0; i < g.NumBits(); i++ {
					if g.Bit(i) {
						w |= 1 << uint(i)
					}
				}
				if first || w < best {
					best, first = w, false
				}
			}
		}
	}
	return best
}

func ttFromWord(n int, w uint64) *TT {
	t := NewTT(n)
	for i := 0; i < t.NumBits(); i++ {
		if w>>uint(i)&1 == 1 {
			t.SetBit(i, true)
		}
	}
	return t
}

func ttWord(t *TT) uint64 {
	var w uint64
	for i := 0; i < t.NumBits(); i++ {
		if t.Bit(i) {
			w |= 1 << uint(i)
		}
	}
	return w
}

// TestNPNCanonExhaustiveSmall: for every function of 0..3 variables the
// canon is exactly the orbit minimum (so canon(f) == canon(g) iff f and g
// are NPN-equivalent), the recorded transform reproduces it, and the
// inverse transform round-trips.
func TestNPNCanonExhaustiveSmall(t *testing.T) {
	for n := 0; n <= 3; n++ {
		for w := uint64(0); w < 1<<uint(1<<uint(n)); w++ {
			f := ttFromWord(n, w)
			canon, tr := NPNCanon(f)
			if got := tr.Apply(f); !got.Equal(canon) {
				t.Fatalf("n=%d w=%#x: tr.Apply(f) != canon (%s vs %s)", n, w, got, canon)
			}
			if back := tr.Inverse().Apply(canon); !back.Equal(f) {
				t.Fatalf("n=%d w=%#x: inverse does not round-trip (%s)", n, w, back)
			}
			if want := orbitMin(f); ttWord(canon) != want {
				t.Fatalf("n=%d w=%#x: canon=%#x, orbit min %#x", n, w, ttWord(canon), want)
			}
		}
	}
}

func randTT(rng *rand.Rand, n int) *TT {
	f := NewTT(n)
	for i := 0; i < f.NumBits(); i++ {
		if rng.Intn(2) == 1 {
			f.SetBit(i, true)
		}
	}
	return f
}

func randTransform(rng *rand.Rand, n int) NPNTransform {
	return NPNTransform{
		Perm:      rng.Perm(n),
		InputNeg:  uint32(rng.Intn(1 << uint(n))),
		OutputNeg: rng.Intn(2) == 1,
	}
}

// TestNPNCanonRandomMedium: randomized 4-6 variable check that every pair
// of NPN-equivalent tables canonicalizes identically (exactness at these
// widths) with round-tripping transforms.
func TestNPNCanonRandomMedium(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		n := 4 + rng.Intn(3)
		f := randTT(rng, n)
		g := randTransform(rng, n).Apply(f)
		cf, trf := NPNCanon(f)
		cg, trg := NPNCanon(g)
		if !cf.Equal(cg) {
			t.Fatalf("n=%d iter=%d: NPN-equivalent tables canonicalized differently:\n f=%s canon %s\n g=%s canon %s",
				n, iter, f, cf, g, cg)
		}
		if !trf.Apply(f).Equal(cf) || !trg.Apply(g).Equal(cg) {
			t.Fatalf("n=%d iter=%d: recorded transform does not reproduce canon", n, iter)
		}
		if !trf.Inverse().Apply(cf).Equal(f) || !trg.Inverse().Apply(cg).Equal(g) {
			t.Fatalf("n=%d iter=%d: inverse transform does not round-trip", n, iter)
		}
	}
}

// TestNPNCanonWideDeterministic: beyond NPNExactVars the canon is only
// semi-canonical but must stay deterministic, reachable via the recorded
// transform and invertible.
func TestNPNCanonWideDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 40; iter++ {
		n := 7 + rng.Intn(3)
		f := randTT(rng, n)
		c1, tr1 := NPNCanon(f)
		c2, tr2 := NPNCanon(f.Clone())
		if !c1.Equal(c2) {
			t.Fatalf("n=%d: NPNCanon not deterministic", n)
		}
		if len(tr1.Perm) != n || tr1.InputNeg != tr2.InputNeg || tr1.OutputNeg != tr2.OutputNeg {
			t.Fatalf("n=%d: transforms differ between identical calls", n)
		}
		if !tr1.Apply(f).Equal(c1) {
			t.Fatalf("n=%d: transform does not reproduce canon", n)
		}
		if !tr1.Inverse().Apply(c1).Equal(f) {
			t.Fatalf("n=%d: inverse does not round-trip", n)
		}
		// The semi-canonical form still normalizes output polarity and
		// single-input negations.
		inv := f.Clone()
		inv.Not(inv)
		ci, _ := NPNCanon(inv)
		if !ci.Equal(c1) {
			t.Fatalf("n=%d: output negation changed the wide canon", n)
		}
	}
}

// TestNPNApplyMatchesPointwise: the word-parallel Apply agrees with direct
// evaluation of the defining equation, across widths that exercise the
// in-word, block and mixed swap paths.
func TestNPNApplyMatchesPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, n := range []int{1, 2, 5, 6, 7, 8, 9} {
		for iter := 0; iter < 25; iter++ {
			f := randTT(rng, n)
			tr := randTransform(rng, n)
			if got, want := tr.Apply(f), applyPointwise(f, tr); !got.Equal(want) {
				t.Fatalf("n=%d: Apply mismatch\n got %s\nwant %s", n, got, want)
			}
		}
	}
}

// TestVarOpsPointwise: FlipVarInPlace and SwapVarsInPlace against direct
// bit-level models, covering i<6<=j and both-above-word-boundary cases.
func TestVarOpsPointwise(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{3, 6, 7, 8, 9} {
		for iter := 0; iter < 20; iter++ {
			f := randTT(rng, n)
			i := rng.Intn(n)
			g := f.Clone()
			g.FlipVarInPlace(i)
			for v := 0; v < f.NumBits(); v++ {
				if g.Bit(v) != f.Bit(v^(1<<uint(i))) {
					t.Fatalf("n=%d: FlipVar(%d) wrong at minterm %d", n, i, v)
				}
			}
			j := rng.Intn(n)
			s := f.Clone()
			s.SwapVarsInPlace(i, j)
			for v := 0; v < f.NumBits(); v++ {
				bi, bj := v>>uint(i)&1, v>>uint(j)&1
				u := v&^(1<<uint(i)|1<<uint(j)) | bj<<uint(i) | bi<<uint(j)
				if s.Bit(v) != f.Bit(u) {
					t.Fatalf("n=%d: SwapVars(%d,%d) wrong at minterm %d", n, i, j, v)
				}
			}
		}
	}
}

// TestVarOpsZeroAlloc: the in-place variable operations allocate nothing,
// inside a word and across word blocks.
func TestVarOpsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	small, large := randTT(rng, 5), randTT(rng, 12)
	perm := []int{11, 3, 7, 0, 9, 1, 10, 2, 8, 4, 6, 5}
	cases := map[string]func(){
		"SwapVarsInPlace": func() {
			small.SwapVarsInPlace(0, 4)
			large.SwapVarsInPlace(2, 9)
			large.SwapVarsInPlace(7, 11)
		},
		"PermuteVarsInPlace": func() {
			small.PermuteVarsInPlace([]int{4, 2, 0, 1, 3})
			large.PermuteVarsInPlace(perm)
		},
		"FlipVarInPlace": func() {
			small.FlipVarInPlace(3)
			large.FlipVarInPlace(1)
			large.FlipVarInPlace(10)
		},
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %.1f objects/run, want 0", name, allocs)
		}
	}
}

// TestTTWordBytesRoundTrip: serialization accessors round-trip and reject
// malformed input.
func TestTTWordBytesRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 4, 6, 7, 10} {
		f := randTT(rng, n)
		b := f.AppendWordBytes(nil)
		g, err := TTFromWordBytes(n, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !g.Equal(f) {
			t.Fatalf("n=%d: round-trip changed the table", n)
		}
	}
	if _, err := TTFromWordBytes(4, make([]byte, 7)); err == nil {
		t.Fatal("short buffer accepted")
	}
	if _, err := TTFromWordBytes(2, []byte{0xFF, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Fatal("stray bits beyond the table accepted")
	}
	if _, err := TTFromWordBytes(17, nil); err == nil {
		t.Fatal("out-of-range variable count accepted")
	}
}
