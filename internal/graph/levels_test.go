package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// Every condensation edge must go to a strictly higher level, and the level
// of a component must be exactly one more than its deepest predecessor
// (longest-path layering, not just any topological layering).
func TestLevelsProperties(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(20)
		g := NewSlice(n)
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			g.AddEdge(rng.Intn(n), rng.Intn(n))
		}
		s := StronglyConnected(g)
		levels := s.Levels()
		pred := Reverse(s.DAG)
		for c := 0; c < s.NumComps(); c++ {
			if len(pred[c]) == 0 {
				if levels[c] != 0 {
					t.Logf("root component %d has level %d", c, levels[c])
					return false
				}
				continue
			}
			deepest := -1
			for _, p := range pred[c] {
				if levels[p] >= levels[c] {
					t.Logf("edge %d->%d does not increase the level (%d -> %d)",
						p, c, levels[p], levels[c])
					return false
				}
				if levels[p] > deepest {
					deepest = levels[p]
				}
			}
			if levels[c] != deepest+1 {
				t.Logf("component %d at level %d, deepest predecessor %d",
					c, levels[c], deepest)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
