package core

import (
	"fmt"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// generate materializes the mapped LUT network from converged labels and
// cover records. The result is cycle-accurate equivalent to the input
// circuit: LUT_v computes v's sequential function, and an edge from LUT_u
// into LUT_v carries the register count w of the covered replica u^w.
// Retiming the result (pipelined or not) realizes the target phi. The
// caller sets Result.Stats.
func (s *state) generate() (*Result, error) {
	c := s.c
	m := netlist.NewCircuit(c.Name + "_mapped")
	mapped := make([]int, c.NumNodes())
	for i := range mapped {
		mapped[i] = -1
	}
	// Discover the needed gates from the POs through the recorded cuts.
	needed := make([]bool, c.NumNodes())
	var stack []int
	want := func(id int) {
		if c.Nodes[id].Kind == netlist.Gate && !needed[id] {
			needed[id] = true
			stack = append(stack, id)
		}
	}
	for _, po := range c.POs {
		want(c.Nodes[po].Fanins[0].From)
	}
	var neededIDs []int
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		neededIDs = append(neededIDs, id)
		rec := s.recs[id]
		if rec.tree == nil && len(c.Nodes[id].Fanins) > 0 {
			return nil, fmt.Errorf("core: no cover recorded for needed gate %q", c.Nodes[id].Name)
		}
		for _, r := range rec.cut {
			want(r.Orig)
		}
	}
	// PIs first, then placeholder LUT roots (so feedback cuts resolve),
	// then materialize the trees.
	for _, pi := range c.PIs {
		mapped[pi] = m.AddPI(c.Nodes[pi].Name)
	}
	for _, id := range neededIDs {
		mapped[id] = m.AddGate(c.Nodes[id].Name, logic.Const(0, false))
	}
	for _, id := range neededIDs {
		if err := s.materialize(m, mapped, id); err != nil {
			return nil, err
		}
	}
	for _, po := range c.POs {
		f := c.Nodes[po].Fanins[0]
		if mapped[f.From] < 0 {
			return nil, fmt.Errorf("core: PO %q driver unmapped", c.Nodes[po].Name)
		}
		id := m.AddPO(c.Nodes[po].Name, mapped[f.From], f.Weight)
		mapped[po] = id
	}
	m.InvalidateCaches()
	if err := m.Check(); err != nil {
		return nil, fmt.Errorf("core: generated network is malformed: %v", err)
	}
	if !m.IsKBounded(s.opts.K) {
		return nil, fmt.Errorf("core: generated network exceeds K=%d (max fanin %d)",
			s.opts.K, m.MaxFanin())
	}
	// Origin map for initial-state alignment.
	origOf := make([]int, m.NumNodes())
	for i := range origOf {
		origOf[i] = -1
	}
	for orig, mid := range mapped {
		if mid >= 0 {
			origOf[mid] = orig
		}
	}
	return &Result{
		Phi: s.phi,
		// The state returns to the engine and its label array is reused by
		// the next probe; the result must own its copy.
		Labels: append([]int(nil), s.labels...),
		Mapped: m,
		LUTs:   m.NumGates(),
		OrigOf: origOf,
	}, nil
}

// materialize builds gate id's LUT tree inside m. The tree's root replaces
// the placeholder created for id; internal nodes become fresh LUTs.
func (s *state) materialize(m *netlist.Circuit, mapped []int, id int) error {
	rec := s.recs[id]
	tree := rec.tree
	if tree == nil {
		// A gate without fanins is a constant source: never updated, so
		// never covered, it is its own 0-input LUT.
		m.Nodes[mapped[id]].Func = s.c.Nodes[id].Func
		return nil
	}
	// Tree references: leaves 0..NumInputs-1 are cut replicas; internal
	// node i is tree.NumInputs+i. refFanin maps a reference to the fanin
	// realizing it in m.
	refFanin := make([]netlist.Fanin, tree.NumInputs+len(tree.Nodes))
	for j, r := range rec.cut {
		from := mapped[r.Orig]
		if from < 0 {
			return fmt.Errorf("core: cut input %q of %q unmapped",
				s.c.Nodes[r.Orig].Name, s.c.Nodes[id].Name)
		}
		refFanin[j] = netlist.Fanin{From: from, Weight: r.W}
	}
	for i, nd := range tree.Nodes {
		fanins := make([]netlist.Fanin, len(nd.Children))
		for k, ch := range nd.Children {
			fanins[k] = refFanin[ch]
		}
		ref := tree.NumInputs + i
		if ref == tree.Root() {
			// Fill the placeholder.
			g := m.Nodes[mapped[id]]
			g.Func = nd.Func
			g.Fanins = fanins
		} else {
			name := fmt.Sprintf("%s$d%d", s.c.Nodes[id].Name, i)
			for m.IDByName(name) != -1 {
				name += "'"
			}
			gid := m.AddGate(name, nd.Func, fanins...)
			refFanin[ref] = netlist.Fanin{From: gid}
		}
	}
	return nil
}
