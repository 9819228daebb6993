// pldspeedup demonstrates Section 4 of the paper: deciding that a target
// clock ratio is INFEASIBLE is the expensive half of the binary search,
// because without a certificate the label computation must run until the
// conservative per-SCC n^2 stopping rule. Positive loop detection (PLD)
// answers the same question with one certificate: once no loop member is
// grounded — every member's L(v) sits at least two above the best support
// entering the loop — the labels can only keep rising, so the target is
// infeasible. On these rings that takes two sweeps whatever the ring length.
//
// The demo builds rings of unit-delay gates around a single register (MDR
// ratio = ring length) and probes the infeasible target ratio 2 with PLD on
// and off, reporting label-computation iterations and wall time.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"time"

	"turbosyn"
	"turbosyn/internal/core"
)

// ring builds n 2-input AND gates in a loop around one register, each gate
// also consuming its own primary input. The loop cone then has n+1 distinct
// inputs, so low target ratios are genuinely infeasible for structural
// mapping (LUTs cannot absorb the chain the way they would a buffer ring).
func ring(n int) *turbosyn.Circuit {
	c := turbosyn.NewCircuit(fmt.Sprintf("ring%d", n))
	and2 := turbosyn.And(2)
	pi0 := c.AddPI("x0")
	first := c.AddGate("r0", and2, turbosyn.Fanin{From: pi0}, turbosyn.Fanin{From: pi0})
	prev := first
	for i := 1; i < n; i++ {
		pi := c.AddPI(fmt.Sprintf("x%d", i))
		prev = c.AddGate(fmt.Sprintf("r%d", i), and2,
			turbosyn.Fanin{From: prev}, turbosyn.Fanin{From: pi})
	}
	c.Nodes[first].Fanins[1] = turbosyn.Fanin{From: prev, Weight: 1}
	c.InvalidateCaches()
	c.AddPO("z", prev, 0)
	if err := c.Check(); err != nil {
		log.Fatal(err)
	}
	return c
}

// probe decides target on e under o and times it.
func probe(e *core.Engine, target int, o core.Options) (bool, core.Stats, time.Duration) {
	start := time.Now()
	ok, st, err := e.FeasibleContext(context.Background(), target, o)
	if err != nil {
		log.Fatal(err)
	}
	return ok, st, time.Since(start)
}

func main() {
	k := flag.Int("k", 5, "LUT input count")
	flag.Parse()

	fmt.Println("probing the infeasible target ratio 2 on gate rings (TurboMap labels):")
	fmt.Printf("%8s  %12s %12s  %12s %12s  %8s\n",
		"ring", "iters(PLD)", "iters(n^2)", "time(PLD)", "time(n^2)", "speedup")
	for _, n := range []int{24, 48, 96} {
		c := ring(n)
		// Ratio 2 needs the whole ring inside ~2 LUT levels per register:
		// impossible for rings much longer than 2(K-1).
		target := 2

		// TurboMap labels, with and without PLD, on one core engine: the
		// public options always run PLD, so the n^2 rule is reached through
		// core.Options, as the PLD ablation table does.
		on := core.Options{K: *k, PLD: true, Pipelined: true}
		e, err := core.NewEngine(c, on)
		if err != nil {
			log.Fatal(err)
		}
		okOn, statsOn, dOn := probe(e, target, on)
		off := on
		off.PLD = false
		okOff, statsOff, dOff := probe(e, target, off)
		e.Close()

		if okOn || okOff {
			log.Fatalf("ring%d: target %d unexpectedly feasible", n, target)
		}
		speedup := float64(dOff) / float64(dOn)
		fmt.Printf("%8s  %12d %12d  %12v %12v  %7.1fx\n",
			c.Name, statsOn.Iterations, statsOff.Iterations,
			dOn.Round(time.Microsecond), dOff.Round(time.Microsecond), speedup)
	}
	fmt.Println("\nthe n^2 stopping rule grows quadratically with the loop size;")
	fmt.Println("the grounding certificate stops once the whole loop has lifted off its support.")
}
