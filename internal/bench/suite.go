package bench

import (
	"fmt"
	"math/rand"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// Case is one benchmark circuit of the suite.
type Case struct {
	// Name follows the paper's roster; the circuit itself is a seeded
	// synthetic analog of the named benchmark (see package comment).
	Name    string
	Class   string // "mcnc-fsm" or "iscas89"
	Circuit *netlist.Circuit
}

// Suite generates the 16-circuit evaluation suite: 12 MCNC-FSM-style
// machines and 4 ISCAS'89-style sequential datapaths, every one
// deterministic (fixed seeds) and 2-bounded by construction (so any K >= 2
// works without preprocessing).
func Suite() []Case {
	type fsmRow struct {
		name string
		seed int64
		spec FSMSpec
	}
	fsms := []fsmRow{
		{"bbara", 101, FSMSpec{StateBits: 4, Inputs: 4, Outputs: 2, Cubes: 6, Span: 5}},
		{"bbsse", 102, FSMSpec{StateBits: 4, Inputs: 7, Outputs: 7, Cubes: 8, Span: 5, Mealy: true}},
		{"cse", 103, FSMSpec{StateBits: 4, Inputs: 7, Outputs: 7, Cubes: 10, Span: 6}},
		{"dk16", 104, FSMSpec{StateBits: 5, Inputs: 2, Outputs: 3, Cubes: 14, Span: 5}},
		{"keyb", 105, FSMSpec{StateBits: 5, Inputs: 7, Outputs: 2, Cubes: 12, Span: 6, Mealy: true}},
		{"kirkman", 106, FSMSpec{StateBits: 4, Inputs: 12, Outputs: 6, Cubes: 10, Span: 7}},
		{"planet", 107, FSMSpec{StateBits: 6, Inputs: 7, Outputs: 19, Cubes: 14, Span: 7}},
		{"pma", 108, FSMSpec{StateBits: 5, Inputs: 8, Outputs: 8, Cubes: 12, Span: 6}},
		{"s1", 109, FSMSpec{StateBits: 5, Inputs: 8, Outputs: 6, Cubes: 12, Span: 7, Mealy: true}},
		{"sand", 110, FSMSpec{StateBits: 5, Inputs: 11, Outputs: 9, Cubes: 14, Span: 7}},
		{"styr", 111, FSMSpec{StateBits: 5, Inputs: 9, Outputs: 10, Cubes: 14, Span: 7, Mealy: true}},
		{"tbk", 112, FSMSpec{StateBits: 5, Inputs: 6, Outputs: 3, Cubes: 18, Span: 8, Mealy: true}},
	}
	var out []Case
	for _, row := range fsms {
		rng := rand.New(rand.NewSource(row.seed))
		out = append(out, Case{
			Name:    row.name,
			Class:   "mcnc-fsm",
			Circuit: FSM(rng, row.name, row.spec),
		})
	}
	out = append(out,
		Case{"s420", "iscas89", Accumulator("s420", 16, []int{5, 11})},
		Case{"s838", "iscas89", Accumulator("s838", 32, []int{7, 19, 29})},
		Case{"s1423", "iscas89", mixed("s1423", 201, 24, 6)},
		Case{"s5378", "iscas89", mixed("s5378", 202, 48, 8)},
	)
	return out
}

// mixed couples an accumulator datapath with an FSM controller: the FSM
// gates the accumulator feedback, creating cross-coupled loops of both
// flavours (control SOPs and carry ripple).
func mixed(name string, seed int64, width, stateBits int) *netlist.Circuit {
	rng := rand.New(rand.NewSource(seed))
	c := Accumulator(name, width, []int{width / 3, 2 * width / 3})
	// Controller over fresh inputs plus taps of the accumulator state.
	spec := FSMSpec{StateBits: stateBits, Inputs: 2, Outputs: 2, Cubes: 10, Span: 6}
	ctl := FSM(rng, name+"_ctl", spec)
	graft(c, ctl, rng)
	return c
}

// graft merges circuit b into a, wiring b's inputs from signals of a and
// XOR-mixing b's output drivers into a random register path of a.
func graft(a, b *netlist.Circuit, rng *rand.Rand) {
	offset := make([]int, b.NumNodes())
	for i := range offset {
		offset[i] = -1
	}
	// Pick gate signals of a to stand in for b's PIs.
	var aGates []int
	for _, n := range a.Nodes {
		if n.Kind == netlist.Gate {
			aGates = append(aGates, n.ID)
		}
	}
	for _, pi := range b.PIs {
		offset[pi] = aGates[rng.Intn(len(aGates))]
	}
	for _, n := range b.Nodes {
		if n.Kind == netlist.Gate {
			offset[n.ID] = a.AddGate(b.Nodes[n.ID].Name+"$g", logic.Const(0, false))
		}
	}
	for _, n := range b.Nodes {
		if n.Kind != netlist.Gate {
			continue
		}
		g := a.Nodes[offset[n.ID]]
		g.Func = n.Func
		for _, f := range n.Fanins {
			g.Fanins = append(g.Fanins, netlist.Fanin{From: offset[f.From], Weight: f.Weight})
		}
	}
	// Mix b's PO drivers into a via XOR on some register edges of a.
	for _, po := range b.POs {
		f := b.Nodes[po].Fanins[0]
		src := offset[f.From]
		// find a registered fanin of a random gate of a and mix there
		for tries := 0; tries < 50; tries++ {
			g := a.Nodes[aGates[rng.Intn(len(aGates))]]
			mixed := false
			for i := range g.Fanins {
				if g.Fanins[i].Weight >= 1 {
					x := a.AddGate(fmt.Sprintf("%s$mix%d", b.Name, po),
						logic.XorAll(2), netlist.Fanin{From: g.Fanins[i].From, Weight: g.Fanins[i].Weight},
						netlist.Fanin{From: src, Weight: f.Weight + 1})
					g.Fanins[i] = netlist.Fanin{From: x}
					mixed = true
					break
				}
			}
			if mixed {
				break
			}
		}
	}
	a.InvalidateCaches()
}

// ScaleFSM generates the scalability-sweep machines: like FSM but sized by
// state bits directly (gates grow roughly linearly in stateBits*cubes) with
// a fixed span, deterministic in the name.
func ScaleFSM(name string, stateBits, cubes int) *netlist.Circuit {
	var seed int64 = 7
	for _, b := range []byte(name) {
		seed = seed*131 + int64(b)
	}
	rng := rand.New(rand.NewSource(seed))
	return FSM(rng, name, FSMSpec{
		StateBits: stateBits,
		Inputs:    8,
		Outputs:   8,
		Cubes:     cubes,
		Span:      6,
	})
}

// Scale10k is the ~10k-gate scale-push circuit: a 40-core interleaved
// fabric (ten independent clusters of four pipelined cores). Deterministic.
func Scale10k() *netlist.Circuit {
	return MultiCore("scale10k", MultiCoreSpec{Cores: 40, StateBits: 8, Cubes: 6, Span: 6})
}
