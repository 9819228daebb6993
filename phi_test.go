package turbosyn

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/retime"
	"turbosyn/internal/sim"
)

// TestPhiIsMappingPeriod: Result.Phi is the period the delivered (packed)
// mapping achieves, not the search's bound on it. Under MinRatio it is the
// mapping's loop bound, ceil(MDR) and at least 1; under MinPeriod the
// realized network meets it and the mapping cannot be retimed to one less.
// dk16's packed TurboSYN and FlowSYN-s mappings beat their search's phi 2.
func TestPhiIsMappingPeriod(t *testing.T) {
	rows := map[string]bool{"bbara": true, "bbsse": true, "keyb": true, "s420": true, "dk16": true}
	runs := []struct {
		alg Algorithm
		obj Objective
	}{
		{TurboSYN, MinRatio}, {TurboMap, MinRatio}, {FlowSYNS, MinRatio},
		{TurboSYN, MinPeriod}, {TurboMap, MinPeriod},
	}
	for _, cs := range bench.Suite() {
		if !rows[cs.Name] {
			continue
		}
		for _, run := range runs {
			res, err := Synthesize(cs.Circuit, Options{Algorithm: run.alg, Objective: run.obj, Workers: 1})
			if err != nil {
				t.Fatalf("%s %v/%v: %v", cs.Name, run.alg, run.obj, err)
			}
			if run.obj == MinRatio {
				num, den := MDRRatio(res.Mapped)
				if want := max(1, int((num+den-1)/den)); res.Phi != want {
					t.Errorf("%s %v: phi %d, want ceil(MDR) of the mapping, MDR %d/%d", cs.Name, run.alg, res.Phi, num, den)
				}
				continue
			}
			if p := ClockPeriod(res.Realized); p > res.Phi {
				t.Errorf("%s %v/period: realized period %d > phi %d", cs.Name, run.alg, p, res.Phi)
			}
			if res.Phi > 1 {
				if _, ok := retime.RetimeForPeriod(res.Mapped, res.Phi-1, false); ok {
					t.Errorf("%s %v/period: mapping retimes to %d < phi %d", cs.Name, run.alg, res.Phi-1, res.Phi)
				}
			}
		}
	}
}

// TestGateFreeCircuit: a primary input wired straight to an output, with
// and without a register on the way, maps to no LUT at phi 1 under every
// algorithm, and the realized netlist survives a BLIF round trip. FlowSYN-s
// once reported phi 0 here and failed to realize it.
func TestGateFreeCircuit(t *testing.T) {
	for w := 0; w <= 1; w++ {
		c := NewCircuit("wire")
		c.AddPO("y", c.AddPI("a"), w)
		for _, alg := range []Algorithm{TurboSYN, TurboMap, FlowSYNS} {
			res, err := Synthesize(c, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("w=%d %v: %v", w, alg, err)
			}
			if res.Phi != 1 || res.LUTs != 0 {
				t.Errorf("w=%d %v: phi %d, %d LUTs; want phi 1, 0 LUTs", w, alg, res.Phi, res.LUTs)
			}
			if _, err := ReadBLIF(bytes.NewReader(blifString(t, res.Realized))); err != nil {
				t.Errorf("w=%d %v: realized BLIF does not re-parse: %v", w, alg, err)
			}
		}
	}
}

// TestConstantGateDrivers: a gate without fanins (a BLIF constant) that
// drives an output or a register maps to a 0-input LUT under every
// algorithm. Constants are never updated, so they carry no recorded cover;
// FlowSYN-s also exposes a register's constant driver as an island output.
func TestConstantGateDrivers(t *testing.T) {
	for _, body := range []string{
		".names y\n1\n",
		".names k\n1\n.latch k y 0\n",
		".names k\n1\n.latch k q 0\n.names q a y\n11 1\n",
	} {
		c, err := ReadBLIF(strings.NewReader(".model const\n.inputs a\n.outputs y\n" + body + ".end\n"))
		if err != nil {
			t.Fatal(err)
		}
		name := strings.ReplaceAll(body, "\n", " ")
		for _, alg := range []Algorithm{TurboSYN, TurboMap, FlowSYNS} {
			res, err := Synthesize(c, Options{Algorithm: alg})
			if err != nil {
				t.Fatalf("%s %v: %v", name, alg, err)
			}
			vecs := sim.RandomVectors(rand.New(rand.NewSource(1)), 50, len(c.PIs))
			if err := sim.CompareAligned(c, res.Mapped, res.OrigOf, vecs, 4); err != nil {
				t.Errorf("%s %v: mapping diverges: %v", name, alg, err)
			}
		}
	}
}
