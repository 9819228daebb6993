package mapper

import (
	"math/rand"
	"testing"

	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// randomSequential mirrors the core test generator (named gates so the
// merge's bookkeeping is exercised with and without names).
func randomSequential(rng *rand.Rand, nGates, k int) *netlist.Circuit {
	c := netlist.NewCircuit("rnd")
	nPI := 2 + rng.Intn(3)
	ids := make([]int, 0, nGates+nPI)
	for i := 0; i < nPI; i++ {
		ids = append(ids, c.AddPI(string(rune('a'+i))))
	}
	var gates []int
	for i := 0; i < nGates; i++ {
		nf := 1 + rng.Intn(k)
		fanins := make([]netlist.Fanin, nf)
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[rng.Intn(len(ids))], Weight: rng.Intn(2)}
		}
		fn := logic.NewTT(nf)
		for b := 0; b < fn.NumBits(); b++ {
			if rng.Intn(2) == 1 {
				fn.SetBit(b, true)
			}
		}
		id := c.AddGate("", fn, fanins...)
		ids = append(ids, id)
		gates = append(gates, id)
	}
	for i := 0; i < nGates/4; i++ {
		g := gates[rng.Intn(len(gates))]
		n := c.Nodes[g]
		n.Fanins[rng.Intn(len(n.Fanins))] = netlist.Fanin{
			From: gates[rng.Intn(len(gates))], Weight: 1 + rng.Intn(2),
		}
	}
	c.InvalidateCaches()
	for i := 0; i < 2; i++ {
		c.AddPO("z"+string(rune('0'+i)), gates[len(gates)-1-i], rng.Intn(2))
	}
	return c
}

func TestFlowSYNSRandomEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 10+rng.Intn(30), 5)
		if c.Check() != nil {
			continue
		}
		res, err := flowSYNS(c, 5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Mapped.Check(); err != nil {
			t.Fatalf("seed %d: merged network malformed: %v", seed, err)
		}
		if !res.Mapped.IsKBounded(5) {
			t.Fatalf("seed %d: not K-bounded", seed)
		}
		// phi must be realizable on the merged network.
		if _, ok := retime.RetimeForPeriod(res.Mapped, res.Phi, true); !ok {
			t.Fatalf("seed %d: reported phi %d not realizable", seed, res.Phi)
		}
		vecs := sim.RandomVectors(rng, 150, len(c.PIs))
		if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 12); err != nil {
			t.Fatalf("seed %d: merged network diverges: %v", seed, err)
		}
	}
}

func TestPackRandomEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized end-to-end sweep; skipped in -short")
	}
	for seed := int64(40); seed < 55; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := randomSequential(rng, 10+rng.Intn(25), 5)
		if c.Check() != nil {
			continue
		}
		res, err := flowSYNS(c, 5)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		packed, origOf, err := Pack(res.Mapped, 5, res.OrigOf)
		if err != nil {
			t.Fatalf("seed %d: pack: %v", seed, err)
		}
		if packed.NumGates() > res.Mapped.NumGates() {
			t.Fatalf("seed %d: pack grew the network", seed)
		}
		if got := mdrCeil(packed); got > res.Phi {
			t.Fatalf("seed %d: pack broke the ratio: %d > %d", seed, got, res.Phi)
		}
		vecs := sim.RandomVectors(rng, 150, len(c.PIs))
		if err := sim.CompareAligned(c, packed, origOf, vecs, 12); err != nil {
			t.Fatalf("seed %d: packed network diverges: %v", seed, err)
		}
	}
}
