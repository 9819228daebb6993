package logic

import (
	"math/bits"
	"sync"
)

// Compiled is a local gate function compiled once for word-parallel
// simulation: EvalWords computes the gate's table over m variables from its
// fanins' tables in a single pass over the output words, whatever the
// function. Cone functions are simulated bottom-up with it, so the gate's
// own table is never expanded or cofactored per evaluation (the Shannon
// recursion of Compose).
//
// The common gate shapes get their own kernels: constants fill the table,
// a one-input function is a copy or an inversion (and a buffer can alias
// its fanin's table instead; see Alias), and every two-input function is
// ((a^pa)&(b^pb))^po or a^b^po. Anything wider evaluates an irredundant
// sum of products of the function or of its complement, whichever costs
// fewer word operations. A Compiled value is immutable, so one serves any
// number of concurrent evaluations.
type Compiled struct {
	kind       compiledKind
	a, b       uint8  // the inputs of the one- and two-input kernels
	pa, pb, po uint64 // polarity masks: 0 or all ones
	cubes      []Cube
}

type compiledKind uint8

const (
	kindConst compiledKind = iota // po fills the table
	kindProj                      // x_a ^ po
	kindAnd2                      // ((x_a^pa)&(x_b^pb))^po
	kindXor2                      // x_a^x_b^po
	kindSOP                       // (OR of cubes)^po
)

// Compile compiles t for EvalWords.
func Compile(t *TT) *Compiled {
	if c, v := t.IsConst(); c {
		return &Compiled{kind: kindConst, po: fill(v)}
	}
	sup := t.Support()
	// at returns t at the assignment setting the support variables to the
	// bits of i (and every other variable to 0).
	at := func(i int) bool {
		m := 0
		for k, v := range sup {
			if i>>k&1 == 1 {
				m |= 1 << v
			}
		}
		return t.Bit(m)
	}
	switch len(sup) {
	case 1:
		return &Compiled{kind: kindProj, a: uint8(sup[0]), po: fill(at(0))}
	case 2:
		f := &Compiled{a: uint8(sup[0]), b: uint8(sup[1])}
		ones := 0
		for i := 0; i < 4; i++ {
			if at(i) {
				ones++
			}
		}
		if ones == 2 {
			// Two ones and both variables in the support: the parity.
			f.kind, f.po = kindXor2, fill(at(0))
			return f
		}
		// One minterm that differs from the other three: AND of two
		// literals selecting it, complemented when it is the only zero.
		odd := ones == 1
		for i := 0; i < 4; i++ {
			if at(i) == odd {
				f.pa, f.pb = fill(i&1 == 0), fill(i&2 == 0)
			}
		}
		f.kind, f.po = kindAnd2, fill(!odd)
		return f
	}
	cover, po := ISOP(t), uint64(0)
	if nc := ISOP(NewTT(t.nvar).Not(t)); sopCost(nc) < sopCost(cover) {
		cover, po = nc, ^uint64(0)
	}
	return &Compiled{kind: kindSOP, po: po, cubes: cover}
}

func fill(v bool) uint64 {
	if v {
		return ^uint64(0)
	}
	return 0
}

// sopCost is the word operations per output word of evaluating cover: one
// per literal and one per cube.
func sopCost(cover []Cube) int {
	n := len(cover)
	for _, q := range cover {
		for c := q.Care; c != 0; c &= c - 1 {
			n++
		}
	}
	return n
}

// Alias reports the input whose table is the function's table — a buffer,
// possibly of one input among ignored others — or -1. A simulation may
// share that input's table instead of calling EvalWords.
func (f *Compiled) Alias() int {
	if f.kind == kindProj && f.po == 0 {
		return int(f.a)
	}
	return -1
}

// EvalWords sets out to the function's table over m variables, given the
// tables of its inputs over the same m variables (ins[i] for input i, each
// as long as out). out must not alias an input table.
func (f *Compiled) EvalWords(out []uint64, ins [][]uint64, m int) {
	msk := mask(m)
	switch f.kind {
	case kindConst:
		for w := range out {
			out[w] = f.po & msk
		}
	case kindProj:
		a := ins[f.a][:len(out)]
		for w := range out {
			out[w] = (a[w] ^ f.po) & msk
		}
	case kindAnd2:
		a, b := ins[f.a][:len(out)], ins[f.b][:len(out)]
		for w := range out {
			out[w] = ((a[w]^f.pa)&(b[w]^f.pb) ^ f.po) & msk
		}
	case kindXor2:
		a, b := ins[f.a][:len(out)], ins[f.b][:len(out)]
		for w := range out {
			out[w] = (a[w] ^ b[w] ^ f.po) & msk
		}
	default:
		for w := range out {
			var acc uint64
			for _, q := range f.cubes {
				c := ^uint64(0)
				for care := q.Care; care != 0; care &= care - 1 {
					v := bits.TrailingZeros32(care)
					c &= ins[v][w] ^ fill(q.Pol>>v&1 == 0)
				}
				acc |= c
			}
			out[w] = (acc ^ f.po) & msk
		}
	}
}

// projections[m] holds the tables of x_0..x_{m-1} over m variables, one
// after the other, built on first use.
var projections [MaxVars + 1]struct {
	once  sync.Once
	words []uint64
}

// VarWords returns the table of the projection x_j over m variables. The
// table is shared by every caller and must not be written.
func VarWords(m, j int) []uint64 {
	p := &projections[m]
	p.once.Do(func() {
		n := wordsFor(m)
		p.words = make([]uint64, 0, m*n)
		for i := 0; i < m; i++ {
			p.words = append(p.words, Var(m, i).words...)
		}
	})
	n := wordsFor(m)
	return p.words[j*n : (j+1)*n : (j+1)*n]
}
