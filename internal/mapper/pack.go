package mapper

import (
	"fmt"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// Pack reduces the LUT count of a mapped network without touching its
// timing-relevant structure, in the spirit of the paper's mpack/flowpack
// post-processing:
//
//   - duplicate elimination: LUTs with identical functions and identical
//     fanin lists merge;
//   - collapsing: a LUT with a single fanout, reached over a register-free
//     connection, folds into its consumer when the merged support still
//     fits K inputs.
//
// Both moves only shorten or preserve combinational paths, so any clock
// period/MDR target met before packing is still met after. The origOf
// stream map (see core.Result) is carried through; pass nil if not needed.
func Pack(c *netlist.Circuit, k int, origOf []int) (*netlist.Circuit, []int, error) {
	if origOf != nil && len(origOf) != c.NumNodes() {
		return nil, nil, fmt.Errorf("mapper: origOf has %d entries for %d nodes",
			len(origOf), c.NumNodes())
	}
	work := c.Clone()
	for {
		changed := dedupe(work)
		if collapse(work, k) {
			changed = true
		}
		if !changed {
			break
		}
	}
	return compact(work, origOf)
}

// dedupe rewires consumers of functionally identical LUTs (same truth table
// and same fanin list) onto a single representative. Dead LUTs are swept by
// compact at the end.
func dedupe(c *netlist.Circuit) bool {
	type key struct {
		fn     string
		fanins string
	}
	seen := make(map[key]int)
	repl := make(map[int]int)
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		fs := ""
		for _, f := range n.Fanins {
			fs += fmt.Sprintf("%d@%d,", f.From, f.Weight)
		}
		k := key{fn: n.Func.String(), fanins: fs}
		if rep, ok := seen[k]; ok {
			repl[n.ID] = rep
		} else {
			seen[k] = n.ID
		}
	}
	if len(repl) == 0 {
		return false
	}
	// Only actual rewires count as progress: the dead duplicates linger in
	// the node list until compact and must not retrigger the fixpoint loop.
	rewired := false
	for _, n := range c.Nodes {
		for i := range n.Fanins {
			if rep, ok := repl[n.Fanins[i].From]; ok && n.Fanins[i].From != rep {
				n.Fanins[i].From = rep
				rewired = true
			}
		}
	}
	if rewired {
		c.InvalidateCaches()
	}
	return rewired
}

// collapse folds single-fanout LUTs into their consumers where the merged
// support fits k.
func collapse(c *netlist.Circuit, k int) bool {
	changed := false
	for _, v := range c.Nodes {
		if v.Kind != netlist.Gate {
			continue
		}
	retry:
		for slot := 0; slot < len(v.Fanins); slot++ {
			f := v.Fanins[slot]
			u := c.Nodes[f.From]
			if f.Weight != 0 || u.Kind != netlist.Gate || u.ID == v.ID {
				continue
			}
			if len(c.Fanouts(u.ID)) != 1 {
				continue
			}
			// Merged fanin list: v's fanins minus slot, plus u's fanins,
			// with duplicates shared.
			merged := make([]netlist.Fanin, 0, len(v.Fanins)+len(u.Fanins))
			// index of each distinct fanin in merged
			pos := make(map[netlist.Fanin]int)
			addFanin := func(fn netlist.Fanin) int {
				if p, ok := pos[fn]; ok {
					return p
				}
				pos[fn] = len(merged)
				merged = append(merged, fn)
				return len(merged) - 1
			}
			// u's output becomes an internal signal of the merged LUT.
			vVarOf := make([]int, len(v.Fanins)) // v fanin -> merged var (or -1 for u)
			for i, vf := range v.Fanins {
				if i == slot {
					vVarOf[i] = -1
					continue
				}
				vVarOf[i] = addFanin(vf)
			}
			uVarOf := make([]int, len(u.Fanins))
			for i, uf := range u.Fanins {
				uVarOf[i] = addFanin(uf)
			}
			if len(merged) > k {
				continue
			}
			// Compose the merged function over the merged variables.
			m := len(merged)
			subs := make([]*logic.TT, len(v.Fanins))
			uSubs := make([]*logic.TT, len(u.Fanins))
			for i, mv := range uVarOf {
				uSubs[i] = logic.Var(m, mv)
			}
			var uTT *logic.TT
			if len(uSubs) == 0 {
				_, val := u.Func.IsConst()
				uTT = logic.Const(m, val)
			} else {
				uTT = u.Func.Compose(uSubs)
			}
			for i, mv := range vVarOf {
				if mv == -1 {
					subs[i] = uTT
				} else {
					subs[i] = logic.Var(m, mv)
				}
			}
			var newFn *logic.TT
			if len(subs) == 0 {
				_, val := v.Func.IsConst()
				newFn = logic.Const(m, val)
			} else {
				newFn = v.Func.Compose(subs)
			}
			v.Func = newFn
			v.Fanins = merged
			c.InvalidateCaches()
			changed = true
			goto retry
		}
	}
	return changed
}

// compact rebuilds the circuit keeping only nodes reachable (backwards)
// from the POs, and remaps origOf.
func compact(c *netlist.Circuit, origOf []int) (*netlist.Circuit, []int, error) {
	live := make([]bool, c.NumNodes())
	var stack []int
	for _, po := range c.POs {
		live[po] = true
		stack = append(stack, po)
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.Nodes[id].Fanins {
			if !live[f.From] {
				live[f.From] = true
				stack = append(stack, f.From)
			}
		}
	}
	m := netlist.NewCircuit(c.Name)
	newID := make([]int, c.NumNodes())
	for i := range newID {
		newID[i] = -1
	}
	for _, pi := range c.PIs { // keep all PIs: the interface is fixed
		newID[pi] = m.AddPI(c.Nodes[pi].Name)
	}
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate && live[n.ID] {
			newID[n.ID] = m.AddGate(n.Name, logic.Const(0, false))
		}
	}
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate || !live[n.ID] {
			continue
		}
		g := m.Nodes[newID[n.ID]]
		g.Func = n.Func
		for _, f := range n.Fanins {
			g.Fanins = append(g.Fanins, netlist.Fanin{From: newID[f.From], Weight: f.Weight})
		}
	}
	for _, po := range c.POs {
		f := c.Nodes[po].Fanins[0]
		newID[po] = m.AddPO(c.Nodes[po].Name, newID[f.From], f.Weight)
	}
	m.InvalidateCaches()
	if err := m.Check(); err != nil {
		return nil, nil, fmt.Errorf("mapper: packed network malformed: %v", err)
	}
	var newOrig []int
	if origOf != nil {
		newOrig = make([]int, m.NumNodes())
		for i := range newOrig {
			newOrig[i] = -1
		}
		for old, nid := range newID {
			if nid >= 0 {
				newOrig[nid] = origOf[old]
			}
		}
	}
	return m, newOrig, nil
}
