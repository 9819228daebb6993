package logic

import (
	"math/rand"
	"testing"
)

// TestComposePreservesInputs: composition must not mutate the outer
// function or the substitutions.
func TestComposePreservesInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := randTT(rng, 4)
	subs := make([]*TT, 4)
	snap := make([]*TT, 4)
	for i := range subs {
		subs[i] = randTT(rng, 8)
		snap[i] = subs[i].Clone()
	}
	fsnap := f.Clone()
	f.Compose(subs)
	if !f.Equal(fsnap) {
		t.Error("Compose mutated the outer function")
	}
	for i := range subs {
		if !subs[i].Equal(snap[i]) {
			t.Errorf("Compose mutated substitution %d", i)
		}
	}
}

// evalCompiled simulates f over the given input tables with Compile and
// EvalWords, honouring Alias the way a cone simulation does.
func evalCompiled(f *TT, subs []*TT) *TT {
	c := Compile(f)
	m := subs[0].nvar
	ins := make([][]uint64, len(subs))
	for i, s := range subs {
		ins[i] = s.words
	}
	out := NewTT(m)
	if j := c.Alias(); j >= 0 {
		copy(out.words, ins[j])
	} else {
		c.EvalWords(out.words, ins, m)
	}
	return out
}

// TestCompiledMatchesCompose: every function of up to two inputs (each
// kernel and every polarity), and random wider ones, simulate to the
// composition over random input tables, in narrow and multi-word tables.
func TestCompiledMatchesCompose(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(f *TT, m int) {
		t.Helper()
		subs := make([]*TT, f.nvar)
		for i := range subs {
			subs[i] = randTT(rng, m)
		}
		if got, want := evalCompiled(f, subs), f.Compose(subs); !got.Equal(want) {
			t.Fatalf("f=%s over %d vars: simulation %s, composition %s", f, m, got, want)
		}
	}
	for _, m := range []int{1, 3, 6, 8} {
		for k := 1; k <= 2; k++ {
			for bits := 0; bits < 1<<(1<<k); bits++ {
				f := NewTT(k)
				f.words[0] = uint64(bits)
				check(f, m)
			}
		}
		for round := 0; round < 200; round++ {
			check(randTT(rng, 1+rng.Intn(7)), m)
		}
		check(AndAll(5), m)
		check(OrAll(4), m)
		check(XorAll(3), m)
		check(Mux21(), m)
	}
}

// TestCompiledKernels: the common gate shapes compile to their one-pass
// kernels, buffers alias their input, and a gate ignoring all but one
// input still aliases it.
func TestCompiledKernels(t *testing.T) {
	proj, _ := FromBits(2, "0011") // x_1 of (x_0, x_1)
	for _, tc := range []struct {
		name  string
		f     *TT
		kind  compiledKind
		alias int
	}{
		{"const", Const(3, true), kindConst, -1},
		{"buf", Buf(), kindProj, 0},
		{"inv", Inv(), kindProj, -1},
		{"proj", proj, kindProj, 1},
		{"and", AndAll(2), kindAnd2, -1},
		{"nor", NorAll(2), kindAnd2, -1},
		{"xnor", NewTT(2).Not(XorAll(2)), kindXor2, -1},
		{"and3", AndAll(3), kindSOP, -1},
	} {
		c := Compile(tc.f)
		if c.kind != tc.kind || c.Alias() != tc.alias {
			t.Errorf("%s: kind %d alias %d, want kind %d alias %d", tc.name, c.kind, c.Alias(), tc.kind, tc.alias)
		}
	}
	// A wide function and its complement compile to the smaller cover.
	if c := Compile(NandAll(4)); c.po == 0 || len(c.cubes) != 1 {
		t.Errorf("NAND4 compiled to %d cubes, po=%x; want AND4 complemented", len(c.cubes), c.po)
	}
}

// TestVarWords: the shared projections equal Var's tables.
func TestVarWords(t *testing.T) {
	for m := 1; m <= 10; m++ {
		for j := 0; j < m; j++ {
			got := VarWords(m, j)
			if want := Var(m, j); !(&TT{nvar: m, words: got}).Equal(want) {
				t.Fatalf("VarWords(%d, %d) differs from Var", m, j)
			}
			if cap(got) != len(got) {
				t.Fatalf("VarWords(%d, %d) leaves capacity for an append to clobber", m, j)
			}
		}
	}
}
