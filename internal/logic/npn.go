package logic

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"
)

// NPN canonicalization: two functions are NPN-equivalent when one can be
// obtained from the other by permuting inputs, negating a subset of inputs
// and optionally negating the output. The decomposition engine keys its
// cross-run cache on the canonical representative of a cone function's NPN
// class, so one Roth-Karp run serves every variant of the same function that
// different circuits (or different corners of one circuit) produce.

// NPNExactVars is the widest function for which NPNCanon is exact (a true
// class invariant). Wider functions get a deterministic semi-canonical form.
const NPNExactVars = 6

// NPNTransform describes one member of the NPN group over n variables:
// g = tr.Apply(f) is defined by g(v) = f(u) ^ OutputNeg with
// u_i = v_{Perm[i]} ^ a_i, where a is the InputNeg bit mask. Perm[i] is the
// position variable i of f occupies in g; InputNeg bit i negates variable i
// of f (before permutation).
type NPNTransform struct {
	Perm      []int
	InputNeg  uint32
	OutputNeg bool
}

// Identity reports whether tr is the identity transform.
func (tr NPNTransform) Identity() bool {
	if tr.InputNeg != 0 || tr.OutputNeg {
		return false
	}
	for i, p := range tr.Perm {
		if p != i {
			return false
		}
	}
	return true
}

// Inverse returns the transform tr' with tr'.Apply(tr.Apply(f)) == f.
func (tr NPNTransform) Inverse() NPNTransform {
	n := len(tr.Perm)
	inv := make([]int, n)
	for i, p := range tr.Perm {
		inv[p] = i
	}
	var a uint32
	for j := 0; j < n; j++ {
		if tr.InputNeg>>uint(inv[j])&1 == 1 {
			a |= 1 << uint(j)
		}
	}
	return NPNTransform{Perm: inv, InputNeg: a, OutputNeg: tr.OutputNeg}
}

// Apply returns the table of tr applied to f (see NPNTransform for the
// semantics). f is not modified.
func (tr NPNTransform) Apply(f *TT) *TT {
	if len(tr.Perm) != f.nvar {
		panic(fmt.Sprintf("logic: NPN transform over %d vars applied to %d-var table", len(tr.Perm), f.nvar))
	}
	r := f.Clone()
	for i := 0; i < f.nvar; i++ {
		if tr.InputNeg>>uint(i)&1 == 1 {
			r.FlipVarInPlace(i)
		}
	}
	r.PermuteVarsInPlace(tr.Perm)
	if tr.OutputNeg {
		r.Not(r)
	}
	return r
}

// FlipVarInPlace replaces t by t(x ^ e_i), i.e. negates input variable i.
func (t *TT) FlipVarInPlace(i int) {
	if i < 0 || i >= t.nvar {
		panic(fmt.Sprintf("logic: FlipVar(%d) on %d-var table", i, t.nvar))
	}
	if i < 6 {
		m := varMask64[i]
		s := uint(1) << uint(i)
		for w := range t.words {
			x := t.words[w]
			t.words[w] = (x&m)>>s | (x&^m)<<s
		}
	} else {
		block := 1 << (i - 6)
		for base := 0; base < len(t.words); base += 2 * block {
			lo, hi := t.words[base:base+block], t.words[base+block:base+2*block]
			for w := range lo {
				lo[w], hi[w] = hi[w], lo[w]
			}
		}
	}
}

// SwapVarsInPlace exchanges input variables i and j.
func (t *TT) SwapVarsInPlace(i, j int) {
	if i == j {
		return
	}
	if j < i {
		i, j = j, i
	}
	if i < 0 || j >= t.nvar {
		panic(fmt.Sprintf("logic: SwapVars(%d, %d) on %d-var table", i, j, t.nvar))
	}
	switch {
	case j < 6:
		for w := range t.words {
			t.words[w] = swap64(t.words[w], i, j)
		}
	case i >= 6:
		// Swap word blocks: word w pairs with w + (2^(j-6) - 2^(i-6)) when
		// bit (i-6) of w is set and bit (j-6) is clear.
		bi, bj := 1<<(i-6), 1<<(j-6)
		d := bj - bi
		for w := range t.words {
			if w&bi != 0 && w&bj == 0 {
				t.words[w], t.words[w+d] = t.words[w+d], t.words[w]
			}
		}
	default:
		// Mixed: variable i lives inside a word, variable j selects word
		// blocks. Exchange the var-i=1 half of each low word with the
		// var-i=0 half of its var-j=1 partner.
		m := varMask64[i]
		s := uint(1) << uint(i)
		bj := 1 << (j - 6)
		for w := range t.words {
			if w&bj != 0 {
				continue
			}
			a, b := t.words[w], t.words[w+bj]
			t.words[w] = a&^m | (b&^m)<<s
			t.words[w+bj] = b&m | (a&m)>>s
		}
	}
}

// PermuteVarsInPlace moves input variable i to position perm[i] (a
// permutation of 0..nvar-1). It allocates nothing.
func (t *TT) PermuteVarsInPlace(perm []int) {
	n := t.nvar
	if len(perm) != n {
		panic("logic: PermuteVars: permutation length mismatch")
	}
	// pos[i] tracks where original variable i currently sits.
	var pos, slot, inv [MaxVars]int
	for i := 0; i < n; i++ {
		pos[i] = i
		slot[i] = i
	}
	for i, p := range perm {
		inv[p] = i
	}
	for p := 0; p < n; p++ {
		want := inv[p]
		if slot[p] == want {
			continue
		}
		q := pos[want]
		t.SwapVarsInPlace(p, q)
		other := slot[p]
		slot[p], slot[q] = want, other
		pos[want], pos[other] = p, q
	}
}

// varMask64 has bit b set when bit i of the minterm index b is set: the
// classic magic masks for in-word truth-table variable manipulation.
var varMask64 = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// flip64 negates variable i of a single-word table.
func flip64(w uint64, i int) uint64 {
	m := varMask64[i]
	s := uint(1) << uint(i)
	return (w&m)>>s | (w&^m)<<s
}

// swap64 exchanges variables i < j of a single-word table by delta-swapping
// the minterm pairs that differ exactly in bits i and j.
func swap64(w uint64, i, j int) uint64 {
	d := uint(1)<<uint(j) - uint(1)<<uint(i)
	a := varMask64[i] &^ varMask64[j]
	x := (w>>d ^ w) & a
	return w ^ x ^ x<<d
}

// NPNCanon returns the canonical representative of f's NPN class and the
// transform tr with tr.Apply(f) equal to that representative. For functions
// of up to NPNExactVars variables the result is exact: two tables get the
// same canon iff they are NPN-equivalent. Wider functions get a
// deterministic semi-canonical form driven by cofactor signatures, which
// may split some classes — callers lose cache hits, never correctness.
func NPNCanon(f *TT) (*TT, NPNTransform) {
	if f.nvar <= NPNExactVars {
		return npnCanonExact(f)
	}
	return npnCanonHeur(f)
}

// npnEnum walks every (permutation, input negation, output negation) of a
// single-word table and keeps the minimal table value seen. Permutations are
// generated by Heap's algorithm (one O(1) delta-swap per step), negations by
// a Gray code (one O(1) flip per step), so each candidate costs a few word
// operations.
type npnEnum struct {
	n       int
	msk     uint64
	w       uint64 // current permuted table, no negations applied
	slot    [6]int // slot[p] = original variable at position p
	bestSet bool
	best    uint64
	bestPrm [6]int
	bestNeg uint32 // position-space negation mask of the best candidate
	bestOut bool
}

func (e *npnEnum) swapPos(i, j int) {
	if i == j {
		return
	}
	if j < i {
		i, j = j, i
	}
	e.w = swap64(e.w, i, j)
	e.slot[i], e.slot[j] = e.slot[j], e.slot[i]
}

func (e *npnEnum) consider(w uint64, neg uint32, out bool) {
	if e.bestSet && w >= e.best {
		return
	}
	e.bestSet = true
	e.best = w
	e.bestPrm = e.slot
	e.bestNeg = neg
	e.bestOut = out
}

func (e *npnEnum) visitNegations() {
	cur := e.w
	var neg uint32
	e.consider(cur, neg, false)
	e.consider(^cur&e.msk, neg, true)
	for g := 1; g < 1<<uint(e.n); g++ {
		v := bits.TrailingZeros32(uint32(g))
		cur = flip64(cur, v)
		neg ^= 1 << uint(v)
		e.consider(cur, neg, false)
		e.consider(^cur&e.msk, neg, true)
	}
}

func (e *npnEnum) heap(k int) {
	if k <= 1 {
		e.visitNegations()
		return
	}
	for i := 0; i < k-1; i++ {
		e.heap(k - 1)
		if k%2 == 0 {
			e.swapPos(i, k-1)
		} else {
			e.swapPos(0, k-1)
		}
	}
	e.heap(k - 1)
}

func npnCanonExact(f *TT) (*TT, NPNTransform) {
	n := f.nvar
	e := npnEnum{n: n, msk: mask(n), w: f.words[0]}
	for i := range e.slot {
		e.slot[i] = i
	}
	e.heap(n)
	perm := make([]int, n)
	for p := 0; p < n; p++ {
		perm[e.bestPrm[p]] = p
	}
	// bestNeg negates canonical positions; express it over f's variables.
	var a uint32
	for p := 0; p < n; p++ {
		if e.bestNeg>>uint(p)&1 == 1 {
			a |= 1 << uint(e.bestPrm[p])
		}
	}
	canon := &TT{nvar: n, words: []uint64{e.best}}
	return canon, NPNTransform{Perm: perm, InputNeg: a, OutputNeg: e.bestOut}
}

// npnCanonHeur computes a deterministic semi-canonical form for wide tables:
// output polarity by ones count, per-input polarity by cofactor ones counts,
// input order by the sorted (c0, c1) signature. Exhaustive enumeration is
// out of reach at 7+ variables (5040+ permutations over multi-word tables
// per cone), and signature collisions only cost duplicate cache entries.
func npnCanonHeur(f *TT) (*TT, NPNTransform) {
	n := f.nvar
	size := 1 << uint(n)
	ones := f.CountOnes()
	out := 2*ones > size || (2*ones == size && f.Bit(0))
	g := f
	if out {
		g = f.Clone()
		g.Not(g)
	}
	var a uint32
	type sig struct{ c0, c1, idx int }
	sigs := make([]sig, n)
	scratch := g.Clone()
	for i := 0; i < n; i++ {
		copy(scratch.words, g.words)
		scratch.CofactorInPlace(i, false)
		c0 := scratch.CountOnes()
		copy(scratch.words, g.words)
		scratch.CofactorInPlace(i, true)
		c1 := scratch.CountOnes()
		if c1 < c0 {
			a |= 1 << uint(i)
			c0, c1 = c1, c0
		}
		sigs[i] = sig{c0, c1, i}
	}
	sort.SliceStable(sigs, func(x, y int) bool {
		if sigs[x].c0 != sigs[y].c0 {
			return sigs[x].c0 < sigs[y].c0
		}
		if sigs[x].c1 != sigs[y].c1 {
			return sigs[x].c1 < sigs[y].c1
		}
		return sigs[x].idx < sigs[y].idx
	})
	perm := make([]int, n)
	for p, s := range sigs {
		perm[s.idx] = p
	}
	tr := NPNTransform{Perm: perm, InputNeg: a, OutputNeg: out}
	return tr.Apply(f), tr
}

// AppendWordBytes appends the table's words in little-endian byte order
// (8 * wordsFor(nvar) bytes) — the compact wire form used by cache keys and
// the persisted decomposition log.
func (t *TT) AppendWordBytes(b []byte) []byte {
	for _, w := range t.words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// TTFromWordBytes rebuilds a table from the little-endian byte form written
// by AppendWordBytes. Stray bits beyond the table's 2^nvar valid bits are
// rejected so that decoded tables keep the word-equality invariant.
func TTFromWordBytes(nvar int, b []byte) (*TT, error) {
	if nvar < 0 || nvar > MaxVars {
		return nil, fmt.Errorf("logic: TTFromWordBytes: %d variables out of range", nvar)
	}
	nw := wordsFor(nvar)
	if len(b) != 8*nw {
		return nil, fmt.Errorf("logic: TTFromWordBytes: want %d bytes for %d vars, got %d", 8*nw, nvar, len(b))
	}
	t := NewTT(nvar)
	for i := range t.words {
		t.words[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	if t.words[nw-1]&^mask(nvar) != 0 {
		return nil, fmt.Errorf("logic: TTFromWordBytes: stray bits beyond 2^%d table", nvar)
	}
	return t, nil
}
