// Package sim provides cycle-accurate simulation of retiming-graph circuits
// and simulation-based equivalence evidence between two circuits.
//
// Semantics: an edge of weight w is a w-deep shift register initialized to
// zero (reset-to-zero convention, see DESIGN.md). Each Step presents one
// primary-input vector, evaluates the combinational logic, returns the
// primary-output vector, and then clocks every register.
package sim

import (
	"fmt"
	"math/rand"

	"turbosyn/internal/netlist"
)

// Simulator holds the evolving state of one circuit.
type Simulator struct {
	c     *netlist.Circuit
	order []int // combinational topological order
	depth []int // history depth needed per node (max outgoing weight)
	// hist[n] is a ring of the last depth[n] output values of node n;
	// hist[n][(cursor - w) mod depth] is the value w cycles ago.
	hist   [][]bool
	cursor int
	cur    []bool
}

// New builds a simulator for c. The circuit must pass Check.
func New(c *netlist.Circuit) (*Simulator, error) {
	if err := c.Check(); err != nil {
		return nil, err
	}
	s := &Simulator{
		c:     c,
		order: c.CombTopoOrder(),
		depth: make([]int, c.NumNodes()),
		hist:  make([][]bool, c.NumNodes()),
		cur:   make([]bool, c.NumNodes()),
	}
	for _, n := range c.Nodes {
		for _, f := range n.Fanins {
			if f.Weight > s.depth[f.From] {
				s.depth[f.From] = f.Weight
			}
		}
	}
	for i, d := range s.depth {
		if d > 0 {
			s.hist[i] = make([]bool, d)
		}
	}
	return s, nil
}

// past returns node n's output w cycles ago (w >= 1).
func (s *Simulator) past(n, w int) bool {
	d := s.depth[n]
	return s.hist[n][((s.cursor-w)%d+d)%d]
}

// Step simulates one clock cycle. inputs[i] is the value of the i-th primary
// input (in Circuit.PIs order); the returned slice holds the primary outputs
// (in Circuit.POs order) valid during this cycle.
func (s *Simulator) Step(inputs []bool) []bool {
	if len(inputs) != len(s.c.PIs) {
		panic(fmt.Sprintf("sim: %d inputs supplied, circuit has %d PIs",
			len(inputs), len(s.c.PIs)))
	}
	for i, pi := range s.c.PIs {
		s.cur[pi] = inputs[i]
	}
	for _, id := range s.order {
		n := s.c.Nodes[id]
		switch n.Kind {
		case netlist.PI:
			// already set
		case netlist.PO:
			f := n.Fanins[0]
			s.cur[id] = s.faninValue(f)
		case netlist.Gate:
			var a uint
			for k, f := range n.Fanins {
				if s.faninValue(f) {
					a |= 1 << uint(k)
				}
			}
			s.cur[id] = n.Func.Eval(a)
		}
	}
	out := make([]bool, len(s.c.POs))
	for i, po := range s.c.POs {
		out[i] = s.cur[po]
	}
	// Clock the registers: record this cycle's outputs.
	for id, h := range s.hist {
		if h != nil {
			h[s.cursor%len(h)] = s.cur[id]
		}
	}
	s.cursor++
	return out
}

func (s *Simulator) faninValue(f netlist.Fanin) bool {
	if f.Weight == 0 {
		return s.cur[f.From]
	}
	return s.past(f.From, f.Weight)
}

// Run simulates the vector sequence and returns one output vector per cycle.
func (s *Simulator) Run(vectors [][]bool) [][]bool {
	out := make([][]bool, len(vectors))
	for i, v := range vectors {
		out[i] = s.Step(v)
	}
	return out
}

// RandomVectors returns n random input vectors of the given width.
func RandomVectors(rng *rand.Rand, n, width int) [][]bool {
	vs := make([][]bool, n)
	for i := range vs {
		v := make([]bool, width)
		for j := range v {
			v[j] = rng.Intn(2) == 1
		}
		vs[i] = v
	}
	return vs
}

// Mismatch describes the first output disagreement found by Compare.
type Mismatch struct {
	Cycle  int // cycle index in circuit a's timeline
	Output int // PO index
	A, B   bool
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("sim: output %d differs at cycle %d: a=%v b=%v",
		m.Output, m.Cycle, m.A, m.B)
}

// Compare co-simulates circuits a and b on the same input sequence and
// checks that b's outputs, delayed by latency cycles, match a's outputs from
// cycle warmup onward. (b receives the same vectors; latency models added
// pipeline stages in b.) It returns nil on agreement or the first Mismatch.
//
// This is simulation evidence, not a proof: retimed machines started from
// the all-zero state can disagree transiently, which is what warmup absorbs.
func Compare(a, b *netlist.Circuit, vectors [][]bool, warmup, latency int) error {
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		return fmt.Errorf("sim: interface mismatch: %d/%d PIs, %d/%d POs",
			len(a.PIs), len(b.PIs), len(a.POs), len(b.POs))
	}
	sa, err := New(a)
	if err != nil {
		return fmt.Errorf("sim: circuit a: %v", err)
	}
	sb, err := New(b)
	if err != nil {
		return fmt.Errorf("sim: circuit b: %v", err)
	}
	outA := sa.Run(vectors)
	outB := sb.Run(vectors)
	for t := warmup; t < len(vectors); t++ {
		tb := t + latency
		if tb >= len(vectors) {
			break
		}
		for j := range outA[t] {
			if outA[t][j] != outB[tb][j] {
				return &Mismatch{Cycle: t, Output: j, A: outA[t][j], B: outB[tb][j]}
			}
		}
	}
	return nil
}

// CombEquivalent exhaustively checks two purely combinational circuits with
// at most maxPIs primary inputs for functional equality. Circuits with
// registers or more inputs are rejected with an error.
func CombEquivalent(a, b *netlist.Circuit, maxPIs int) (bool, error) {
	if a.NumFFs() != 0 || b.NumFFs() != 0 {
		return false, fmt.Errorf("sim: CombEquivalent needs combinational circuits")
	}
	if len(a.PIs) != len(b.PIs) || len(a.POs) != len(b.POs) {
		return false, nil
	}
	n := len(a.PIs)
	if n > maxPIs {
		return false, fmt.Errorf("sim: %d inputs exceed exhaustive limit %d", n, maxPIs)
	}
	sa, err := New(a)
	if err != nil {
		return false, err
	}
	sb, err := New(b)
	if err != nil {
		return false, err
	}
	v := make([]bool, n)
	for x := 0; x < 1<<uint(n); x++ {
		for j := 0; j < n; j++ {
			v[j] = x&(1<<uint(j)) != 0
		}
		oa := sa.Step(v)
		ob := sb.Step(v)
		for j := range oa {
			if oa[j] != ob[j] {
				return false, nil
			}
		}
	}
	return true, nil
}
