package core

import (
	"fmt"
	"math/rand"
	"testing"

	"turbosyn/internal/cut"
	"turbosyn/internal/expand"
	"turbosyn/internal/logic"
	"turbosyn/internal/netlist"
)

// witnessOracle is the soundness oracle of cut witnesses. It runs a probe of
// c at phi (which records the witnesses), then raises random labels over a
// few rounds. Whenever a witness of a gate holds at (labels, phi, L), an
// expansion and a K-cut on fresh scratch at the same inputs must succeed. L
// ranges around the gate's computeL, since the implication is claimed for
// every L.
//
// Besides the probe's own witnesses, each gate gets one built from a
// minimum cut wider than K (as tryDecompose finds them) where one exists:
// those must never hold, because no K-cut exists where they were found.
//
// next(n) draws the randomness, a value in [0, n). It returns how many
// witnesses held, so callers can tell the oracle was not vacuous.
func witnessOracle(t testing.TB, c *netlist.Circuit, phi int, opts Options, next func(int) int) int {
	t.Helper()
	s := newState(c, phi, opts)
	if _, err := s.run(); err != nil {
		t.Fatal(err)
	}
	var gates []int
	for _, n := range c.Nodes {
		if n.Kind == netlist.Gate && len(n.Fanins) > 0 {
			gates = append(gates, n.ID)
		}
	}
	xopts := expand.Options{LowDepth: opts.LowDepth, MaxNodes: opts.MaxExpand}
	wide := make([]witness, c.NumNodes())
	for _, id := range gates {
		if x, ok := (&expand.Builder{}).Build(c, id, s.labels, phi, s.computeL(id), xopts); ok {
			if res, ok := (&cut.Arena{}).KCut(x, cmax); ok && len(res.Cut) > opts.K {
				wide[id].record(x, res)
			}
		}
	}
	hits := 0
	var run []int32
	for round := 0; round < 6; round++ {
		if round > 0 {
			for _, id := range gates {
				if next(3) == 0 {
					s.labels[id] += 1 + next(2)
				}
			}
		}
		for _, id := range gates {
			L0 := s.computeL(id)
			for _, wt := range []*witness{&s.wits[id], &wide[id]} {
				if cap(run) < wt.cone {
					run = make([]int32, wt.cone)
				}
				for L := L0 - 1; L <= L0+2; L++ {
					if !wt.holds(s.labels, phi, L, opts.K, opts.LowDepth, run[:wt.cone]) {
						continue
					}
					hits++
					x, ok := (&expand.Builder{}).Build(c, id, s.labels, phi, L, xopts)
					if !ok {
						t.Fatalf("node %d phi=%d L=%d: expansion overflowed", id, phi, L)
					}
					if _, ok := (&cut.Arena{}).KCut(x, opts.K); !ok {
						t.Fatalf("node %d phi=%d L=%d K=%d LowDepth=%d: the witness holds but no K-cut exists (labels %v)",
							id, phi, L, opts.K, opts.LowDepth, s.labels)
					}
				}
			}
		}
	}
	return hits
}

// witnessOpts returns the probe options the oracle runs under.
func witnessOpts(decompose bool, k, lowDepth int) Options {
	opts := DefaultOptions()
	opts.Decompose = decompose
	opts.K = k
	opts.LowDepth = lowDepth
	opts.Workers = 1
	return opts.withDefaults()
}

// TestCutWitnessSound runs the oracle on randomSequential circuits under
// every expansion depth the engine distinguishes (the strict frontier, the
// default, a deep one), K 4 and 5, and several phi.
func TestCutWitnessSound(t *testing.T) {
	seeds := 8
	if testing.Short() {
		seeds = 3
	}
	for _, low := range []int{-1, 3, 6} {
		for _, k := range []int{4, 5} {
			t.Run(fmt.Sprintf("low%d_k%d", low, k), func(t *testing.T) {
				hits := 0
				for seed := int64(0); seed < int64(seeds); seed++ {
					rng := rand.New(rand.NewSource(seed))
					c := randomSequential(rng, 12+rng.Intn(20), k)
					if c.Check() != nil {
						continue
					}
					opts := witnessOpts(seed%2 == 0, k, low)
					for phi := 1; phi <= 3; phi++ {
						hits += witnessOracle(t, c, phi, opts, rng.Intn)
					}
				}
				if hits == 0 {
					t.Fatal("no witness held anywhere: the oracle checked nothing")
				}
			})
		}
	}
}

// TestCutWitnessBoundary pins each condition of holds at its exact
// boundary on hand-made witnesses. Replica i stands for circuit node i at
// w = 0, so with phi 1 its eff is labels[i] + 1; L is 3 throughout, so a
// label of 2 makes a candidate and a label of 3 a mandatory replica.
func TestCutWitnessBoundary(t *testing.T) {
	const L, phi = 3, 1
	// chain builds a witness whose cone is root -> 1 -> 2 -> ... (each
	// replica discovered by the previous one) over the given labels, with
	// width cut replicas hanging below the chain's end.
	type spec struct {
		name     string
		chain    []int // labels of the cone replicas below the root
		width    int
		cutLabel int
		lowDepth int
		want     bool
	}
	for _, tc := range []spec{
		{"run equals LowDepth", []int{2, 2, 2}, 2, 2, 3, true},
		{"run exceeds LowDepth", []int{2, 2, 2, 2}, 2, 2, 3, false},
		{"mandatory replica resets the run", []int{2, 2, 3, 2, 2, 2}, 2, 2, 3, true},
		{"strict frontier expands mandatory replicas only", []int{3, 3}, 2, 2, 0, true},
		{"strict frontier rejects a candidate in the cone", []int{3, 2}, 2, 2, 0, false},
		{"K cut replicas at eff = L", []int{3}, 4, 2, 3, true},
		{"K+1 cut replicas", []int{3}, 5, 2, 3, false},
		{"cut replica above L", []int{3}, 2, 3, 3, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			labels := []int{0}
			var wt witness
			wt.reps = append(wt.reps, witRep{0, 0, -1})
			for i, l := range tc.chain {
				labels = append(labels, l)
				wt.reps = append(wt.reps, witRep{int32(i + 1), 0, int32(i)})
			}
			wt.cone = len(wt.reps)
			for j := 0; j < tc.width; j++ {
				labels = append(labels, tc.cutLabel)
				wt.reps = append(wt.reps, witRep{int32(len(labels) - 1), 0, -1})
			}
			run := make([]int32, wt.cone)
			if got := wt.holds(labels, phi, L, 4, tc.lowDepth, run); got != tc.want {
				t.Fatalf("holds = %v, want %v", got, tc.want)
			}
		})
	}
	var empty witness
	if empty.holds([]int{0}, phi, L, 4, 3, nil) {
		t.Fatal("an empty witness holds")
	}
}

// byteSource turns fuzz input into bounded draws; an exhausted source
// draws zeros.
type byteSource []byte

func (b *byteSource) intn(n int) int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// fuzzCircuit builds a small K-bounded sequential circuit from next:
// combinational fanins point backward only, and a few registered back edges
// close loops.
func fuzzCircuit(next func(int) int, k int) *netlist.Circuit {
	c := netlist.NewCircuit("fuzz")
	var ids, gates []int
	nPI, nGates := 1+next(3), 2+next(11)
	for i := 0; i < nPI; i++ {
		ids = append(ids, c.AddPI(string(rune('a'+i))))
	}
	for i := 0; i < nGates; i++ {
		fanins := make([]netlist.Fanin, 1+next(k))
		for j := range fanins {
			fanins[j] = netlist.Fanin{From: ids[next(len(ids))], Weight: next(3) / 2}
		}
		id := c.AddGate("", logic.AndAll(len(fanins)), fanins...)
		ids = append(ids, id)
		gates = append(gates, id)
	}
	for i := next(len(gates) + 1); i > 0; i-- {
		n := c.Nodes[gates[next(len(gates))]]
		n.Fanins[next(len(n.Fanins))] = netlist.Fanin{From: gates[next(len(gates))], Weight: 1 + next(2)}
	}
	c.InvalidateCaches()
	c.AddPO("z", gates[len(gates)-1], 0)
	return c
}

// FuzzCutWitness drives the soundness oracle from arbitrary bytes: they pick
// K, LowDepth and phi, shape the circuit, and choose the label raises.
func FuzzCutWitness(f *testing.F) {
	// The last two seeds hold a witness that lies deeper than the strict
	// frontier and one wider than K: each fails the oracle if holds drops
	// condition 3 or 2, respectively.
	f.Add([]byte{1, 2, 2, 0, 6, 2, 1, 1, 3, 0, 2, 2, 1, 4, 4, 3, 0, 3, 1, 2, 5, 0, 1})
	f.Add([]byte("000000000000000107020200120002X2X01111000"))
	f.Add([]byte("0000000000021200020002120002"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		k := 4 + src.intn(2)
		low := []int{-1, 3, 6}[src.intn(3)]
		phi := 1 + src.intn(3)
		c := fuzzCircuit(src.intn, k)
		if c.Check() != nil {
			return
		}
		witnessOracle(t, c, phi, witnessOpts(false, k, low), src.intn)
	})
}
