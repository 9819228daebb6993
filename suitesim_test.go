package turbosyn

import (
	"math/rand"
	"testing"

	"turbosyn/internal/bench"
	"turbosyn/internal/sim"
)

// TestSuiteMappingsSimulate checks resynthesized suite mappings against
// their inputs by aligned simulation, for both algorithms that decompose
// cone functions. The rows are those whose resynthesis cuts cross the most
// registers; -short keeps the two small ISCAS rows and drops dk16 and s1423.
// The reported phi is the mapping's own ceil(MDR), never the labels' bound.
func TestSuiteMappingsSimulate(t *testing.T) {
	rows := map[string]bool{"s420": true, "s838": true}
	if !testing.Short() {
		rows["dk16"], rows["s1423"] = true, true
	}
	for _, cs := range bench.Suite() {
		if !rows[cs.Name] {
			continue
		}
		for _, alg := range []Algorithm{TurboSYN, FlowSYNS} {
			res, err := Synthesize(cs.Circuit, Options{Algorithm: alg, Workers: 1, NoRealize: true})
			if err != nil {
				t.Fatalf("%s %v: %v", cs.Name, alg, err)
			}
			vecs := sim.RandomVectors(rand.New(rand.NewSource(1)), 300, len(cs.Circuit.PIs))
			if err := sim.CompareAligned(cs.Circuit, res.Mapped, res.OrigOf, vecs, 16); err != nil {
				t.Errorf("%s %v: mapping diverges: %v", cs.Name, alg, err)
			}
			num, den := MDRRatio(res.Mapped)
			if got := max(1, int((num+den-1)/den)); got != res.Phi {
				t.Errorf("%s %v: mapped MDR ceil %d != reported phi %d", cs.Name, alg, got, res.Phi)
			}
		}
	}
}
