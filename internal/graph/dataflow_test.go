package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func randomSCCs(rng *rand.Rand) *SCCs {
	n := 2 + rng.Intn(24)
	g := NewSlice(n)
	m := rng.Intn(3 * n)
	for i := 0; i < m; i++ {
		g.AddEdge(rng.Intn(n), rng.Intn(n))
	}
	return StronglyConnected(g)
}

// In-degrees must count exactly the condensation's edges into each
// component, so the in-degree-zero components are exactly the DAG's roots.
func TestDegreesMatchDAG(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		s := randomSCCs(rand.New(rand.NewSource(seed)))
		in := s.InDegrees()
		pred := Reverse(s.DAG)
		for c := 0; c < s.NumComps(); c++ {
			if in[c] != len(pred[c]) {
				t.Logf("component %d: in-degree %d, reverse DAG lists %d", c, in[c], len(pred[c]))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
