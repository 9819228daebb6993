package expand

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// randomLoopy builds a random K-bounded sequential circuit with loops.
func randomLoopy(rng *rand.Rand, nGates int) *netlist.Circuit {
	c := netlist.NewCircuit("rl")
	pi := c.AddPI("x")
	ids := []int{pi}
	var gates []int
	for i := 0; i < nGates; i++ {
		nf := 1 + rng.Intn(3)
		fanins := make([]netlist.Fanin, nf)
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
		}
		var fn *logic.TT
		switch nf {
		case 1:
			fn = logic.Buf()
		case 2:
			fn = logic.AndAll(2)
		default:
			fn = logic.OrAll(3)
		}
		id := c.AddGate("", fn, fanins...)
		ids = append(ids, id)
		gates = append(gates, id)
	}
	for i := 0; i < nGates/3 && len(gates) > 1; i++ {
		g := gates[rng.Intn(len(gates))]
		n := c.Nodes[g]
		n.Fanins[rng.Intn(len(n.Fanins))] = netlist.Fanin{
			From: gates[rng.Intn(len(gates))], Weight: 1,
		}
	}
	c.InvalidateCaches()
	c.AddPO("z", gates[len(gates)-1], 0)
	return c
}

// TestCandidateSetMonotoneInL: raising the height bound can only turn
// mandatory replicas into candidates, never the reverse, on the shared
// replica set.
func TestCandidateSetMonotoneInL(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomLoopy(rng, 8+rng.Intn(15))
		if c.Check() != nil {
			continue
		}
		labels := make([]int, c.NumNodes())
		for _, n := range c.Nodes {
			if n.Kind == netlist.Gate {
				labels[n.ID] = 1 + rng.Intn(3)
			}
		}
		v := -1
		for _, n := range c.Nodes {
			if n.Kind == netlist.Gate && len(n.Fanins) > 0 {
				v = n.ID
			}
		}
		if v < 0 {
			continue
		}
		opts := Options{LowDepth: 2, MaxNodes: 4000}
		for L := 0; L < 3; L++ {
			xa, oka := (&Builder{}).Build(c, v, labels, 1, L, opts)
			xb, okb := (&Builder{}).Build(c, v, labels, 1, L+1, opts)
			if !oka || !okb {
				continue
			}
			for i, na := range xa.Nodes {
				if i == Root {
					continue
				}
				j := xb.Index(na.Orig, na.W)
				if j < 0 {
					continue // the L+1 expansion may stop earlier
				}
				if na.Candidate && !xb.Nodes[j].Candidate {
					t.Fatalf("seed %d: replica (%d,%d) candidate at L=%d but mandatory at L=%d",
						seed, na.Orig, na.W, L, L+1)
				}
			}
		}
	}
}

// TestEffectiveHeightConsistency: a replica is a candidate iff its effective
// height fits the bound.
func TestEffectiveHeightConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := randomLoopy(rng, 20)
	if err := c.Check(); err != nil {
		t.Skip("unlucky generator draw")
	}
	labels := make([]int, c.NumNodes())
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			labels[n.ID] = 1 + rng.Intn(3)
		}
	}
	var v int
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate {
			v = n.ID
		}
	}
	const phi, L = 2, 2
	x, ok := (&Builder{}).Build(c, v, labels, phi, L, Options{LowDepth: 3})
	if !ok {
		t.Fatal("build failed")
	}
	for i, n := range x.Nodes {
		if i == Root {
			continue
		}
		eff := labels[n.Orig] - phi*n.W + 1
		if n.Candidate != (eff <= L) {
			t.Fatalf("replica (%d,%d): candidate=%v but eff=%d vs L=%d",
				n.Orig, n.W, n.Candidate, eff, L)
		}
	}
}

// TestFaninOrderPreserved: expanded fanins must parallel the gate's fanin
// list (the cone-function evaluator composes by position).
func TestFaninOrderPreserved(t *testing.T) {
	c := netlist.NewCircuit("ord")
	a := c.AddPI("a")
	b := c.AddPI("b")
	// g = a AND NOT b: asymmetric, so a swap is detectable by arity check
	// plus position of each replica.
	fn, err := logic.FromBits(2, "0010")
	if err != nil {
		t.Fatal(err)
	}
	g := c.AddGate("g", fn, netlist.Fanin{From: a}, netlist.Fanin{From: b, Weight: 1})
	c.AddPO("z", g, 0)
	labels := make([]int, c.NumNodes())
	labels[g] = 1
	x, ok := (&Builder{}).Build(c, g, labels, 1, 5, Options{})
	if !ok {
		t.Fatal("build failed")
	}
	fan := x.Fanins[Root]
	if len(fan) != 2 {
		t.Fatalf("root fanins: %d", len(fan))
	}
	if x.Nodes[fan[0]].Orig != a || x.Nodes[fan[0]].W != 0 {
		t.Fatal("fanin 0 must be (a,0)")
	}
	if x.Nodes[fan[1]].Orig != b || x.Nodes[fan[1]].W != 1 {
		t.Fatal("fanin 1 must be (b,1)")
	}
}
