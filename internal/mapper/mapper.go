// Package mapper provides the parts of the FlowSYN-s baseline of the
// paper's experiments and the post-mapping LUT packing that reduces area.
// FlowSYN-s cuts the sequential circuit at its registers (Cut), maps every
// combinational island on the same label engine as the sequential
// algorithms (IslandOptions) and merges the mapping back over the registers
// (Split.Merge); the turbosyn Engine assembles these into its FlowSYNS
// algorithm, the baseline's one entry point.
package mapper

import (
	"fmt"

	"turbosyn/internal/core"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// IslandOptions returns o with FlowSYN's overrides for exact combinational
// mapping with decomposition: the clock-period objective (islands have no
// registers to pipeline), decomposition on, and candidate expansion
// unbounded, because expansions must reach the primary inputs (an island is
// acyclic, so it terminates). Every other option — workers, budgets, cache,
// observability — is the caller's.
func IslandOptions(o core.Options) core.Options {
	o.Decompose = true
	o.Pipelined = false
	o.LowDepth = 1 << 20
	o.MaxExpand = 1 << 22
	return o
}

// Split is FlowSYN-s's register cut of one circuit: Islands is the
// register-free circuit whose combinational islands get mapped, and Merge
// rewires a mapping of Islands back into a sequential network over the
// original circuit.
type Split struct {
	Islands *netlist.Circuit
	orig    *netlist.Circuit
	toSplit []int          // original node id -> Islands node id (PIs, gates)
	pseudo  map[int][2]int // Islands pseudo-PI id -> (original source, weight)
}

// Cut splits the checked circuit c at its registers: every registered
// connection becomes a pseudo primary input, and every register driver is
// exposed as a pseudo primary output (so it is mapped).
func Cut(c *netlist.Circuit) *Split {
	s := netlist.NewCircuit(c.Name + "_split")
	sp := &Split{
		Islands: s,
		orig:    c,
		toSplit: make([]int, c.NumNodes()),
		pseudo:  make(map[int][2]int),
	}
	for i := range sp.toSplit {
		sp.toSplit[i] = -1
	}
	for _, pi := range c.PIs {
		sp.toSplit[pi] = s.AddPI(c.Nodes[pi].Name)
	}
	// Pseudo PIs, one per distinct (source, weight >= 1) pair in use.
	pseudo := make(map[[2]int]int)
	pseudoID := func(from, w int) int {
		key := [2]int{from, w}
		if id, ok := pseudo[key]; ok {
			return id
		}
		id := s.AddPI(fmt.Sprintf("ps$%d$%d", from, w))
		pseudo[key] = id
		sp.pseudo[id] = key
		return id
	}
	// Gates in two passes (placeholders, then wiring), like the other
	// netlist transformers, although the split is acyclic by construction.
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			sp.toSplit[n.ID] = s.AddGate(n.Name, logic.Const(0, false)) // wired below
		}
	}
	regDriver := make([]bool, c.NumNodes())
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		g := s.Nodes[sp.toSplit[n.ID]]
		g.Func = n.Func
		for _, f := range n.Fanins {
			if f.Weight == 0 {
				g.Fanins = append(g.Fanins, netlist.Fanin{From: sp.toSplit[f.From]})
			} else {
				g.Fanins = append(g.Fanins, netlist.Fanin{From: pseudoID(f.From, f.Weight)})
				regDriver[f.From] = true
			}
		}
	}
	for _, po := range c.POs {
		f := c.Nodes[po].Fanins[0]
		if f.Weight == 0 {
			s.AddPO(c.Nodes[po].Name, sp.toSplit[f.From], 0)
		} else {
			s.AddPO(c.Nodes[po].Name, pseudoID(f.From, f.Weight), 0)
			regDriver[f.From] = true
		}
	}
	// Register drivers that are gates must be mapped: expose as pseudo POs,
	// in ascending node order so the split network (and with it the merged
	// BLIF) is the same on every run.
	for from, drives := range regDriver {
		if drives && c.Nodes[from].Kind == netlist.Gate {
			s.AddPO(fmt.Sprintf("po$%d", from), sp.toSplit[from], 0)
		}
	}
	s.InvalidateCaches()
	return sp
}

// Merge rewires res, a mapping of s.Islands, back into a sequential circuit
// over the original circuit's registers. The merged result's Phi is the
// island mapping's: every register-to-register path of the merged network
// is one island path, so Phi bounds its period, and the caller reads the
// exact period off the network it delivers. Its OrigOf points into the
// original circuit and its Stats are the island mapping's.
func (s *Split) Merge(res *core.Result) (*core.Result, error) {
	c, split := s.orig, s.Islands
	mapped := res.Mapped
	// splitDriver[sid] = mapped node computing split node sid's function
	// (for split PIs and gates that were covered).
	splitOf := res.OrigOf // mapped node -> split node
	mappedOf := make([]int, split.NumNodes())
	for i := range mappedOf {
		mappedOf[i] = -1
	}
	for mid, sid := range splitOf {
		if sid >= 0 && mapped.Nodes[mid].Kind != netlist.PO {
			mappedOf[sid] = mid
		}
	}
	// Resolve a fanin of the merged circuit for a mapped-network fanin.
	m := netlist.NewCircuit(c.Name + "_flowsyns")
	newID := make([]int, mapped.NumNodes())
	for i := range newID {
		newID[i] = -1
	}
	// Copy PIs (skip pseudo PIs).
	isPseudo := make([]bool, mapped.NumNodes())
	for mid, sid := range splitOf {
		if sid >= 0 {
			if _, ok := s.pseudo[sid]; ok && mapped.Nodes[mid].Kind == netlist.PI {
				isPseudo[mid] = true
			}
		}
	}
	splitToOrig := make([]int, split.NumNodes())
	for i := range splitToOrig {
		splitToOrig[i] = -1
	}
	for oid, sid := range s.toSplit {
		if sid >= 0 {
			splitToOrig[sid] = oid
		}
	}
	origOfMapped := func(mid int) int {
		sid := splitOf[mid]
		if sid < 0 {
			return -1
		}
		return splitToOrig[sid]
	}
	for _, pi := range mapped.PIs {
		if isPseudo[pi] {
			continue
		}
		newID[pi] = m.AddPI(mapped.Nodes[pi].Name)
	}
	// Gate placeholders.
	for _, n := range mapped.Nodes {
		if n.Kind == netlist.Gate {
			newID[n.ID] = m.AddGate(n.Name, logic.Const(0, false)) // wired below
		}
	}
	// resolveFanin maps a mapped-network fanin to the merged circuit,
	// replacing pseudo-PI references by registered edges from the LUT (or
	// PI) computing the original source.
	resolveFanin := func(f netlist.Fanin) (netlist.Fanin, error) {
		src := f.From
		if !isPseudo[src] {
			return netlist.Fanin{From: newID[src], Weight: f.Weight}, nil
		}
		key := s.pseudo[splitOf[src]]
		origSrc, w := key[0], key[1]
		driver := newID[mappedOf[s.toSplit[origSrc]]]
		if driver < 0 {
			return netlist.Fanin{}, fmt.Errorf("mapper: register driver %d unmapped", origSrc)
		}
		return netlist.Fanin{From: driver, Weight: f.Weight + w}, nil
	}
	for _, n := range mapped.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		g := m.Nodes[newID[n.ID]]
		g.Func = n.Func
		for _, f := range n.Fanins {
			rf, err := resolveFanin(f)
			if err != nil {
				return nil, err
			}
			g.Fanins = append(g.Fanins, rf)
		}
	}
	// Real POs only (pseudo POs and their names start with "po$").
	for _, po := range mapped.POs {
		name := mapped.Nodes[po].Name
		sid := splitOf[po]
		if sid >= 0 {
			sname := split.Nodes[sid].Name
			if len(sname) >= 3 && sname[:3] == "po$" {
				continue // pseudo PO
			}
		}
		f := mapped.Nodes[po].Fanins[0]
		rf, err := resolveFanin(f)
		if err != nil {
			return nil, err
		}
		m.AddPO(name, rf.From, rf.Weight)
	}
	m.InvalidateCaches()
	if err := m.Check(); err != nil {
		return nil, fmt.Errorf("mapper: merged network malformed: %v", err)
	}
	// Origin map into the ORIGINAL circuit.
	origOf := make([]int, m.NumNodes())
	for i := range origOf {
		origOf[i] = -1
	}
	for mid, nid := range newID {
		if nid >= 0 {
			origOf[nid] = origOfMapped(mid)
		}
	}
	// Merged POs correspond to original POs in order.
	realPOs := 0
	for _, po := range c.POs {
		if realPOs < len(m.POs) {
			origOf[m.POs[realPOs]] = po
			realPOs++
		}
	}
	return &core.Result{
		Phi:    res.Phi,
		Mapped: m,
		LUTs:   m.NumGates(),
		OrigOf: origOf,
		Stats:  res.Stats,
	}, nil
}
