// Package mapper provides the FlowSYN-s baseline of the paper's experiments
// (cut the sequential circuit at its registers, map every combinational
// island on the same label engine as the sequential algorithms, merge back)
// and the post-mapping LUT packing that reduces area.
package mapper

import (
	"context"
	"fmt"

	"turbosyn/internal/core"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
)

// combOptions returns core options tuned for exact combinational mapping
// with decomposition (FlowSYN): expansions must reach the primary inputs, so
// candidate expansion is unbounded (the circuit is acyclic, so it
// terminates).
func combOptions(k int) core.Options {
	opts := core.DefaultOptions()
	opts.K = k
	opts.Pipelined = false
	opts.LowDepth = 1 << 20
	opts.MaxExpand = 1 << 22
	return opts
}

// FlowSYNS is the paper's FlowSYN-s baseline for sequential circuits: cut
// the circuit at every register, map the combinational islands with FlowSYN,
// merge the mapped islands with the original registers, and report the
// minimum clock period of the merged network under retiming and pipelining.
func FlowSYNS(c *netlist.Circuit, k int) (*core.Result, error) {
	return FlowSYNSContext(context.Background(), c, k)
}

// FlowSYNSContext is FlowSYNS under a context: cancellation aborts the
// island mapping and surfaces as a *core.CancelError.
func FlowSYNSContext(ctx context.Context, c *netlist.Circuit, k int) (*core.Result, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	split, bound := splitAtRegisters(c)
	res, err := core.MinimizeContext(ctx, split, combOptions(k))
	if err != nil {
		if core.IsAbort(err) {
			return nil, err // keep the structured error reachable by errors.As
		}
		return nil, fmt.Errorf("mapper: FlowSYN-s island mapping: %v", err)
	}
	merged, origOf, err := merge(c, split, bound, res)
	if err != nil {
		return nil, err
	}
	phi, _ := retime.MinPeriodPipelined(merged)
	return &core.Result{
		Phi:    phi,
		Mapped: merged,
		LUTs:   merged.NumGates(),
		OrigOf: origOf,
		Stats:  res.Stats,
		Opts:   res.Opts,
	}, nil
}

// boundary records the correspondence between the original circuit and its
// register-free split.
type boundary struct {
	toSplit  []int          // original node id -> split node id (PIs, gates)
	pseudoPI map[int][2]int // split pseudo-PI id -> (original source, weight)
}

// splitAtRegisters builds the combinational circuit obtained by replacing
// every registered connection with a pseudo primary input, and exposing
// every register driver as a pseudo primary output (so it is mapped).
func splitAtRegisters(c *netlist.Circuit) (*netlist.Circuit, *boundary) {
	s := netlist.NewCircuit(c.Name + "_split")
	b := &boundary{
		toSplit:  make([]int, c.NumNodes()),
		pseudoPI: make(map[int][2]int),
	}
	for i := range b.toSplit {
		b.toSplit[i] = -1
	}
	for _, pi := range c.PIs {
		b.toSplit[pi] = s.AddPI(c.Nodes[pi].Name)
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
		b.pseudoPI[id] = key
		return id
	}
	// Gates in two passes (placeholders, then wiring), like the other
	// netlist transformers, although the split is acyclic by construction.
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			b.toSplit[n.ID] = s.AddGate(n.Name, logic.Const(0, false)) // wired below
		}
	}
	regDriver := make([]bool, c.NumNodes())
	for _, n := range c.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		g := s.Nodes[b.toSplit[n.ID]]
		g.Func = n.Func
		for _, f := range n.Fanins {
			if f.Weight == 0 {
				g.Fanins = append(g.Fanins, netlist.Fanin{From: b.toSplit[f.From]})
			} else {
				g.Fanins = append(g.Fanins, netlist.Fanin{From: pseudoID(f.From, f.Weight)})
				regDriver[f.From] = true
			}
		}
	}
	for _, po := range c.POs {
		f := c.Nodes[po].Fanins[0]
		if f.Weight == 0 {
			s.AddPO(c.Nodes[po].Name, b.toSplit[f.From], 0)
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
			s.AddPO(fmt.Sprintf("po$%d", from), b.toSplit[from], 0)
		}
	}
	s.InvalidateCaches()
	return s, b
}

// merge rewires the mapped split network back into a sequential circuit.
func merge(c, split *netlist.Circuit, b *boundary, res *core.Result) (*netlist.Circuit, []int, error) {
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
			if _, ok := b.pseudoPI[sid]; ok && mapped.Nodes[mid].Kind == netlist.PI {
				isPseudo[mid] = true
			}
		}
	}
	splitToOrig := make([]int, split.NumNodes())
	for i := range splitToOrig {
		splitToOrig[i] = -1
	}
	for oid, sid := range b.toSplit {
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
		key := b.pseudoPI[splitOf[src]]
		origSrc, w := key[0], key[1]
		driver := newID[mappedOf[b.toSplit[origSrc]]]
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
				return nil, nil, err
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
			return nil, nil, err
		}
		m.AddPO(name, rf.From, rf.Weight)
	}
	m.InvalidateCaches()
	if err := m.Check(); err != nil {
		return nil, nil, fmt.Errorf("mapper: merged network malformed: %v", err)
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
	return m, origOf, nil
}
