package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"

	"turbosyn/internal/bench"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/sim"
)

// Circuit shapes of the workloads; README.md records why each was chosen.
// The seed renames these fixed structures instead of redrawing them:
// redrawn machines of one shape differ 2-25x in synthesis cost from seed to
// seed, which no run length averages within the benchmark's bounds.
const (
	giantStateBits = 12 // bench.ScaleFSM shape: 8 cubes, span 6
	giantCubes     = 8
	fsmPoolSize    = 4 // renamed copies of the FSM circuit per daemon_mix run, cycled
	quickPoolSize  = 64
	simVectors     = 512 // simulation vectors per output check
)

// rngFor returns a generator for one named input stream of a seed, so
// adding a stream never shifts the values another stream draws.
func rngFor(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// giantCircuit is one ScaleFSM-shaped machine whose next-state logic forms a
// single large strongly connected component.
func giantCircuit(seed int64) *netlist.Circuit {
	base := bench.ScaleFSM("giant_scc", giantStateBits, giantCubes)
	return relabel(base, fmt.Sprintf("giant_scc_s%d", seed), rngFor(seed, "giant"))
}

// fsmPool returns the daemon_mix FSM job circuits: machines of bbara's
// evaluation-suite shape, each under its own names.
func fsmPool(seed int64) []*netlist.Circuit {
	base := bench.FSM(rand.New(rand.NewSource(101)), "bbara",
		bench.FSMSpec{StateBits: 4, Inputs: 4, Outputs: 2, Cubes: 6, Span: 5})
	rng := rngFor(seed, "fsm")
	out := make([]*netlist.Circuit, fsmPoolSize)
	for i := range out {
		out[i] = relabel(base, fmt.Sprintf("bbara_s%d_%d", seed, i), rng)
	}
	return out
}

// quickPool returns the quick-job circuits: 2-4 random two-input gates over
// three inputs, some edges registered, the last gate possibly in a loop.
func quickPool(seed int64) []*netlist.Circuit {
	rng := rngFor(seed, "quick")
	out := make([]*netlist.Circuit, quickPoolSize)
	for i := range out {
		out[i] = quickCircuit(rng, fmt.Sprintf("quick_s%d_%d", seed, i))
	}
	return out
}

func quickCircuit(rng *rand.Rand, name string) *netlist.Circuit {
	c := netlist.NewCircuit(name)
	var sigs []int
	for i := 0; i < 3; i++ {
		sigs = append(sigs, c.AddPI(fmt.Sprintf("x%d", i)))
	}
	nGates := 2 + rng.Intn(3)
	loop := rng.Intn(2) == 0
	for g := 0; g < nGates; g++ {
		pick := rng.Perm(len(sigs))
		var fanins []netlist.Fanin
		for _, s := range pick[:2] {
			fanins = append(fanins, netlist.Fanin{From: sigs[s], Weight: rng.Intn(4) / 3})
		}
		if loop && g == nGates-1 {
			// The second fanin becomes the gate's own registered output,
			// rewired once the gate exists.
			fanins[1] = netlist.Fanin{From: fanins[0].From}
		}
		id := c.AddGate(fmt.Sprintf("g%d", g), randomFunc(rng), fanins...)
		if loop && g == nGates-1 {
			c.Nodes[id].Fanins[1] = netlist.Fanin{From: id, Weight: 1}
			c.InvalidateCaches()
		}
		sigs = append(sigs, id)
	}
	c.AddPO("y", sigs[len(sigs)-1], 0)
	return c
}

// randomFunc draws a two-input function that depends on both inputs.
func randomFunc(rng *rand.Rand) *logic.TT {
	for {
		f := logic.NewTT(2)
		for b := 0; b < 4; b++ {
			f.SetBit(b, rng.Intn(2) == 1)
		}
		if f.DependsOn(0) && f.DependsOn(1) {
			return f
		}
	}
}

// relabel returns a copy of c named name with every signal under a fresh
// random name. Inputs, gates and outputs keep their declaration order:
// reordering gates changes the engine's work (sweep order,
// decomposition-cache sharing) by up to a third from seed to seed, and
// reordering inputs and outputs by up to a fifth, more than the benchmark's
// bounds allow. Names do not change the work.
func relabel(c *netlist.Circuit, name string, rng *rand.Rand) *netlist.Circuit {
	out := netlist.NewCircuit(name)
	newID := make([]int, len(c.Nodes))
	for k, i := range rng.Perm(len(c.PIs)) {
		newID[c.PIs[k]] = out.AddPI(fmt.Sprintf("i%d", i))
	}
	var gates []int
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			gates = append(gates, n.ID)
		}
	}
	// Gates are declared first and wired second, because a gate's fanins
	// may be declared after it (and registered loops make that unavoidable).
	names := rng.Perm(len(gates))
	for k, id := range gates {
		newID[id] = out.AddGate(fmt.Sprintf("n%d", names[k]), logic.Const(0, false))
	}
	for _, id := range gates {
		n, g := c.Nodes[id], out.Nodes[newID[id]]
		g.Func = n.Func
		g.Fanins = make([]netlist.Fanin, len(n.Fanins))
		for j, f := range n.Fanins {
			g.Fanins[j] = netlist.Fanin{From: newID[f.From], Weight: f.Weight}
		}
	}
	out.InvalidateCaches()
	for k, i := range rng.Perm(len(c.POs)) {
		f := c.Nodes[c.POs[k]].Fanins[0]
		out.AddPO(fmt.Sprintf("o%d", i), newID[f.From], f.Weight)
	}
	return out
}

// vectorsFor draws the simulation vectors an output check of circuit c uses.
func vectorsFor(seed int64, c *netlist.Circuit) [][]bool {
	return sim.RandomVectors(rngFor(seed, "vectors/"+c.Name), simVectors, len(c.PIs))
}

// blifText renders c as the BLIF the program receives.
func blifText(c *netlist.Circuit) ([]byte, error) {
	var buf bytes.Buffer
	if err := netlist.WriteBLIF(&buf, c); err != nil {
		return nil, fmt.Errorf("write %s: %w", c.Name, err)
	}
	return buf.Bytes(), nil
}
