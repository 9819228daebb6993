package decomp

import "turbosyn/internal/logic"

// associativeTree recognizes f (already support-normalized, more than k
// variables) as a wide AND, OR, XOR or a complement thereof, and builds a
// balanced k-ary tree for it directly. Complements fold into the root node.
// ok=false when f has no such shape or the tree cannot fit depthBudget.
func associativeTree(f *logic.TT, refs []int, k, depthBudget int, tr *Tree) (int, bool) {
	mk, invert, ok := assocShape(f)
	if !ok {
		return 0, false
	}
	m := f.NumVars()
	// Depth of a balanced k-ary reduction over m leaves.
	depth := 0
	for span := 1; span < m; span *= k {
		depth++
	}
	if depth > depthBudget {
		return 0, false
	}
	level := append([]int(nil), refs...)
	for len(level) > 1 {
		var next []int
		for i := 0; i < len(level); i += k {
			j := min(i+k, len(level))
			if j-i == 1 {
				next = append(next, level[i])
				continue
			}
			fn := mk(j - i)
			if invert && len(level) <= k {
				// Root node: fold the complement in.
				fn = logic.NewTT(fn.NumVars()).Not(fn)
			}
			tr.Nodes = append(tr.Nodes, TreeNode{Func: fn, Children: append([]int(nil), level[i:j]...)})
			next = append(next, tr.NumInputs+len(tr.Nodes)-1)
		}
		level = next
	}
	return level[0], true
}

// assocShape recognizes f as a wide AND, OR or parity over all its
// variables, or a complement thereof, and returns the gate constructor and
// the complement flag. The AND/OR shapes are read off in closed form: AND
// has a single one, at the last bit; OR a single zero, at bit 0; NAND a
// single zero, at the last bit; NOR a single one, at bit 0.
func assocShape(f *logic.TT) (mk func(int) *logic.TT, invert, ok bool) {
	last := f.NumBits() - 1
	switch ones := f.CountOnes(); {
	case ones == 1 && f.Bit(last):
		return logic.AndAll, false, true
	case ones == last && !f.Bit(0):
		return logic.OrAll, false, true
	case ones == last && !f.Bit(last):
		return logic.AndAll, true, true
	case ones == 1 && f.Bit(0):
		return logic.OrAll, true, true
	}
	if _, inv, ok := f.IsParity(); ok {
		return logic.XorAll, inv, true
	}
	return nil, false, false
}
