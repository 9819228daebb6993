// dsploop synthesizes a loop-dominated DSP kernel: a 16-bit ripple-carry
// accumulator whose low bit takes XOR feedback from high-order sum bits (an
// LFSR-coupled integrator, the shape of scramblers and sigma-delta loops).
//
// The feedback taps pull the entire carry chain into one strongly connected
// component, so the clock period is governed by loops that carry wide,
// rippling logic. Pipelining alone cannot help (loops!); structural mapping
// (TurboMap) chops the ripple into K-LUT slices; TurboSYN additionally
// resynthesizes the carry cones (decompositions that compute carries in
// parallel, as a fast adder does) and reaches a lower ratio — the paper's headline effect on datapaths.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"turbosyn"
)

func buildAccumulator(width int, taps []int) *turbosyn.Circuit {
	c := turbosyn.NewCircuit(fmt.Sprintf("acc%d", width))
	and2, or2, xor2 := turbosyn.And(2), turbosyn.Or(2), turbosyn.Xor(2)
	ins := make([]int, width)
	for i := range ins {
		ins[i] = c.AddPI(fmt.Sprintf("in%d", i))
	}
	// Accumulator state arrives over registered edges from the sum bits;
	// allocate buffer placeholders first and close the loops afterwards.
	acc := make([]int, width)
	for i := range acc {
		acc[i] = c.AddGate(fmt.Sprintf("acc%d", i), turbosyn.ConstFunc(false))
	}
	sum := make([]int, width)
	carry := -1
	for i := 0; i < width; i++ {
		a := turbosyn.Fanin{From: acc[i]}
		b := turbosyn.Fanin{From: ins[i]}
		x := c.AddGate(fmt.Sprintf("x%d", i), xor2, a, b)
		if carry < 0 {
			sum[i] = c.AddGate(fmt.Sprintf("s%d", i), turbosyn.Buf(), turbosyn.Fanin{From: x})
			carry = c.AddGate(fmt.Sprintf("c%d", i), and2, a, b)
			continue
		}
		sum[i] = c.AddGate(fmt.Sprintf("s%d", i), xor2,
			turbosyn.Fanin{From: x}, turbosyn.Fanin{From: carry})
		g := c.AddGate(fmt.Sprintf("g%d", i), and2, a, b)
		h := c.AddGate(fmt.Sprintf("h%d", i), and2,
			turbosyn.Fanin{From: x}, turbosyn.Fanin{From: carry})
		carry = c.AddGate(fmt.Sprintf("c%d", i), or2,
			turbosyn.Fanin{From: g}, turbosyn.Fanin{From: h})
	}
	fb := sum[0]
	for _, t := range taps {
		fb = c.AddGate(fmt.Sprintf("fb%d", t), xor2,
			turbosyn.Fanin{From: fb}, turbosyn.Fanin{From: sum[t]})
	}
	for i, id := range acc {
		src := sum[i]
		if i == 0 {
			src = fb
		}
		g := c.Nodes[id]
		g.Func = turbosyn.Buf()
		g.Fanins = []turbosyn.Fanin{{From: src, Weight: 1}}
	}
	c.InvalidateCaches()
	c.AddPO("low", sum[0], 0)
	c.AddPO("high", sum[width-1], 0)
	if err := c.Check(); err != nil {
		log.Fatal(err)
	}
	return c
}

func main() {
	width := flag.Int("width", 16, "accumulator width in bits")
	k := flag.Int("k", 5, "LUT input count")
	emit := flag.Bool("blif", false, "write the TurboSYN-realized network as BLIF to stdout")
	flag.Parse()

	c := buildAccumulator(*width, []int{*width / 3, 2 * *width / 3})
	num, den := turbosyn.MDRRatio(c)
	fmt.Printf("%s: %d gates, %d registers, gate-level period %d, gate-level MDR %d/%d\n\n",
		c.Name, c.NumGates(), c.NumFFs(), turbosyn.ClockPeriod(c), num, den)

	var blifTarget *turbosyn.Circuit
	for _, alg := range []turbosyn.Algorithm{turbosyn.FlowSYNS, turbosyn.TurboMap, turbosyn.TurboSYN} {
		start := time.Now()
		res, err := turbosyn.Synthesize(c, turbosyn.Options{K: *k, Algorithm: alg})
		if err != nil {
			log.Fatalf("%v: %v", alg, err)
		}
		fmt.Printf("%-9v  period %2d   LUTs %3d   registers %3d   cpu %v\n",
			alg, res.Phi, res.LUTs, res.Realized.NumFFs(),
			time.Since(start).Round(time.Millisecond))
		if alg == turbosyn.TurboSYN {
			blifTarget = res.Realized
		}
	}
	if *emit && blifTarget != nil {
		fmt.Println()
		if err := turbosyn.WriteBLIF(os.Stdout, blifTarget); err != nil {
			log.Fatal(err)
		}
	}
}
