// Package logic implements a bitset truth-table engine for Boolean functions
// of up to MaxVars inputs. Truth tables are the workhorse representation for
// local gate functions (K-bounded, so tiny) and for the cone functions that
// the functional-decomposition engine resynthesizes (bounded by the cut-width
// cap Cmax = 15 of the paper, so at most 2^15 bits).
package logic

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxVars is the largest supported input count. 16 inputs = 65536 table bits
// = 1024 words, which keeps every operation comfortably allocation-bounded.
const MaxVars = 16

// TT is a truth table over a fixed number of variables. Bit i of the table
// (i.e. word i/64, bit i%64) holds f(x) for the assignment where variable j
// takes bit j of i. Unused high bits of the last word are kept zero so that
// tables compare with simple word equality.
type TT struct {
	nvar  int
	words []uint64
}

func wordsFor(nvar int) int {
	if nvar <= 6 {
		return 1
	}
	return 1 << (nvar - 6)
}

// mask returns the valid-bit mask for the (single-word) case.
func mask(nvar int) uint64 {
	if nvar >= 6 {
		return ^uint64(0)
	}
	return (uint64(1) << (1 << nvar)) - 1
}

// NewTT returns the constant-false function of nvar variables.
// It panics if nvar is outside [0, MaxVars].
func NewTT(nvar int) *TT {
	if nvar < 0 || nvar > MaxVars {
		panic(fmt.Sprintf("logic: NewTT(%d): want 0..%d variables", nvar, MaxVars))
	}
	return &TT{nvar: nvar, words: make([]uint64, wordsFor(nvar))}
}

// Const returns the constant function of nvar variables with the given value.
func Const(nvar int, value bool) *TT { return NewTT(nvar).SetConst(value) }

// Var returns the projection function x_i over nvar variables.
func Var(nvar, i int) *TT { return NewTT(nvar).SetVar(i) }

// SetConst sets t to the constant function with the given value and returns
// t.
func (t *TT) SetConst(value bool) *TT {
	w := fill(value)
	for i := range t.words {
		t.words[i] = w
	}
	t.words[len(t.words)-1] &= mask(t.nvar)
	return t
}

// SetVar sets t to the projection function x_i and returns t.
func (t *TT) SetVar(i int) *TT {
	if i < 0 || i >= t.nvar {
		panic(fmt.Sprintf("logic: Var(%d, %d): index out of range", t.nvar, i))
	}
	if i < 6 {
		// Pattern within each word.
		var p uint64
		period := 1 << (i + 1)
		for b := 0; b < 64; b++ {
			if b%period >= period/2 {
				p |= 1 << uint(b)
			}
		}
		for w := range t.words {
			t.words[w] = p
		}
		t.words[0] &= mask(t.nvar)
	} else {
		// Whole words alternate in blocks of 2^(i-6).
		block := 1 << (i - 6)
		for w := range t.words {
			t.words[w] = fill((w/block)%2 == 1)
		}
	}
	return t
}

// CopyFrom sets t to the same function as o (which must have the same
// variable count) and returns t.
func (t *TT) CopyFrom(o *TT) *TT {
	t.checkSame(o)
	copy(t.words, o.words)
	return t
}

// NumVars returns the variable count.
func (t *TT) NumVars() int { return t.nvar }

// NumBits returns the table size 2^nvar.
func (t *TT) NumBits() int { return 1 << t.nvar }

// Words returns the table's backing words: bit i of the table is bit i%64 of
// word i/64. Writes through it must keep the bits past the table's 2^nvar
// zero.
func (t *TT) Words() []uint64 { return t.words }

// Clone returns a deep copy.
func (t *TT) Clone() *TT {
	c := &TT{nvar: t.nvar, words: make([]uint64, len(t.words))}
	copy(c.words, t.words)
	return c
}

// Bit returns f at minterm index i.
func (t *TT) Bit(i int) bool {
	return t.words[i>>6]&(1<<uint(i&63)) != 0
}

// SetBit sets f at minterm index i to v.
func (t *TT) SetBit(i int, v bool) {
	if v {
		t.words[i>>6] |= 1 << uint(i&63)
	} else {
		t.words[i>>6] &^= 1 << uint(i&63)
	}
}

// Eval evaluates the function on an assignment given as a bitmask (bit j =
// value of variable j).
func (t *TT) Eval(assignment uint) bool {
	i := int(assignment) & (t.NumBits() - 1)
	return t.Bit(i)
}

func (t *TT) checkSame(o *TT) {
	if t.nvar != o.nvar {
		panic(fmt.Sprintf("logic: mixing %d-var and %d-var tables", t.nvar, o.nvar))
	}
}

// And sets t = a AND b and returns t. t may alias a or b.
func (t *TT) And(a, b *TT) *TT {
	a.checkSame(b)
	a.checkSame(t)
	aw, bw := a.words[:len(t.words)], b.words[:len(t.words)]
	for i := range t.words {
		t.words[i] = aw[i] & bw[i]
	}
	return t
}

// Or sets t = a OR b and returns t. t may alias a or b.
func (t *TT) Or(a, b *TT) *TT {
	a.checkSame(b)
	a.checkSame(t)
	aw, bw := a.words[:len(t.words)], b.words[:len(t.words)]
	for i := range t.words {
		t.words[i] = aw[i] | bw[i]
	}
	return t
}

// Xor sets t = a XOR b and returns t. t may alias a or b.
func (t *TT) Xor(a, b *TT) *TT {
	a.checkSame(b)
	a.checkSame(t)
	aw, bw := a.words[:len(t.words)], b.words[:len(t.words)]
	for i := range t.words {
		t.words[i] = aw[i] ^ bw[i]
	}
	return t
}

// Not sets t = NOT a and returns t. t may alias a.
func (t *TT) Not(a *TT) *TT {
	a.checkSame(t)
	for i := range t.words {
		t.words[i] = ^a.words[i]
	}
	t.words[len(t.words)-1] &= mask(t.nvar)
	if t.nvar < 6 {
		t.words[0] &= mask(t.nvar)
	}
	return t
}

// Equal reports whether t and o denote the same function (same variable
// count, identical tables).
func (t *TT) Equal(o *TT) bool {
	if t.nvar != o.nvar {
		return false
	}
	for i := range t.words {
		if t.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsConst reports whether t is constant, and if so which constant.
func (t *TT) IsConst() (isConst, value bool) {
	allZero, allOne := true, true
	last := len(t.words) - 1
	for i, w := range t.words {
		want := ^uint64(0)
		if i == last || t.nvar < 6 {
			want = mask(t.nvar)
		}
		if w != 0 {
			allZero = false
		}
		if w != want {
			allOne = false
		}
	}
	switch {
	case allZero:
		return true, false
	case allOne:
		return true, true
	}
	return false, false
}

// CountOnes returns the number of satisfying assignments.
func (t *TT) CountOnes() int {
	n := 0
	for _, w := range t.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Cofactor returns the cofactor of t with variable i fixed to val. The result
// still ranges over nvar variables (variable i becomes irrelevant).
func (t *TT) Cofactor(i int, val bool) *TT {
	r := t.Clone()
	r.CofactorInPlace(i, val)
	return r
}

// CofactorInPlace fixes variable i to val.
func (t *TT) CofactorInPlace(i int, val bool) {
	if i < 0 || i >= t.nvar {
		panic(fmt.Sprintf("logic: Cofactor(%d) on %d-var table", i, t.nvar))
	}
	if i < 6 {
		// Mask of table positions where variable i already equals val.
		var keep uint64
		for b := 0; b < 64; b++ {
			if ((b>>uint(i))&1 == 1) == val {
				keep |= 1 << uint(b)
			}
		}
		shift := uint(1) << uint(i)
		for w := range t.words {
			x := t.words[w] & keep
			if val {
				t.words[w] = x | (x >> shift)
			} else {
				t.words[w] = x | (x << shift)
			}
		}
		if t.nvar < 6 {
			t.words[0] &= mask(t.nvar)
		}
	} else {
		block := 1 << (i - 6)
		// Copy the selected half over both halves, block by block.
		for base := 0; base < len(t.words); base += 2 * block {
			lo, hi := base, base+block
			if val {
				copy(t.words[lo:lo+block], t.words[hi:hi+block])
			} else {
				copy(t.words[hi:hi+block], t.words[lo:lo+block])
			}
		}
	}
}

// lowHalf[i] marks the bit positions of one word where variable i (< 6) is 0.
var lowHalf = [6]uint64{
	0x5555555555555555,
	0x3333333333333333,
	0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF,
	0x0000FFFF0000FFFF,
	0x00000000FFFFFFFF,
}

// DependsOn reports whether t depends on variable i: whether its two
// cofactors on i differ. The halves are compared in place, so it allocates
// nothing.
func (t *TT) DependsOn(i int) bool {
	if i < 0 || i >= t.nvar {
		panic(fmt.Sprintf("logic: DependsOn(%d) on %d-var table", i, t.nvar))
	}
	if i < 6 {
		// Within each word, bit p+2^i holds the value at x_i=1 for the bit
		// p where x_i=0.
		shift := uint(1) << uint(i)
		for _, w := range t.words {
			if (w^(w>>shift))&lowHalf[i] != 0 {
				return true
			}
		}
		return false
	}
	// Variable i selects between word blocks of 2^(i-6) words.
	block := 1 << (i - 6)
	for base := 0; base < len(t.words); base += 2 * block {
		for w := base; w < base+block; w++ {
			if t.words[w] != t.words[w+block] {
				return true
			}
		}
	}
	return false
}

// Support returns the indices of variables t depends on.
func (t *TT) Support() []int {
	var s []int
	for i := 0; i < t.nvar; i++ {
		if t.DependsOn(i) {
			s = append(s, i)
		}
	}
	return s
}

// SupportSize returns the number of variables t depends on, len(Support()),
// without allocating.
func (t *TT) SupportSize() int {
	n := 0
	for i := 0; i < t.nvar; i++ {
		if t.DependsOn(i) {
			n++
		}
	}
	return n
}

// BlocksEqual reports whether blocks i and j of t are equal. Block b is the
// 2^m bits starting at bit b<<m: the subfunction over variables 0..m-1 with
// the variables above fixed to the bits of b.
func (t *TT) BlocksEqual(m, i, j int) bool {
	t.checkBlock(m, i)
	t.checkBlock(m, j)
	if m < 6 {
		return t.block(m, i) == t.block(m, j)
	}
	n := 1 << (m - 6)
	a, b := t.words[i*n:(i+1)*n], t.words[j*n:(j+1)*n]
	for w := range a {
		if a[w] != b[w] {
			return false
		}
	}
	return true
}

// CopyBlock sets block i of t to block j of src, both blocks of 2^m bits
// (see BlocksEqual), and returns t. t and src may differ in variable count.
func (t *TT) CopyBlock(m, i int, src *TT, j int) *TT {
	t.checkBlock(m, i)
	src.checkBlock(m, j)
	if m < 6 {
		off := uint(i<<m) & 63
		w := &t.words[i<<m>>6]
		*w = *w&^(mask(m)<<off) | src.block(m, j)<<off
		return t
	}
	n := 1 << (m - 6)
	copy(t.words[i*n:(i+1)*n], src.words[j*n:(j+1)*n])
	return t
}

// block returns block b of 2^m < 64 bits as the low bits of a word. Blocks
// are aligned to their size, so one never straddles two words.
func (t *TT) block(m, b int) uint64 {
	return t.words[b<<m>>6] >> (uint(b<<m) & 63) & mask(m)
}

func (t *TT) checkBlock(m, b int) {
	if m < 0 || m > t.nvar || b < 0 || b >= 1<<(t.nvar-m) {
		panic(fmt.Sprintf("logic: block %d of 2^%d bits on %d-var table", b, m, t.nvar))
	}
}

// FromBits builds a table from a little-endian bit string such as "1011"
// (bit i of the string is the value at minterm i; index 0 first).
func FromBits(nvar int, bitstr string) (*TT, error) {
	t := NewTT(nvar)
	if len(bitstr) != t.NumBits() {
		return nil, fmt.Errorf("logic: FromBits: want %d bits, got %d", t.NumBits(), len(bitstr))
	}
	for i, c := range bitstr {
		switch c {
		case '1':
			t.SetBit(i, true)
		case '0':
		default:
			return nil, fmt.Errorf("logic: FromBits: bad character %q", c)
		}
	}
	return t, nil
}

// String renders the table as a little-endian bit string.
func (t *TT) String() string {
	var b strings.Builder
	n := t.NumBits()
	for i := 0; i < n; i++ {
		if t.Bit(i) {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}
