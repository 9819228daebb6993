package core

import (
	"turbosyn/internal/cut"
	"turbosyn/internal/expand"
)

// A cut witness is a copy of a node's last successful structural K-cut: the
// cone the cut encloses, as replicas (orig, w) in the cone walk's discovery
// order with each one's discoverer, followed by the cut replicas. The cone
// is closed under fanins down to the cut, which is a property of the circuit
// alone, so a later decision of the same node can re-validate the witness
// against its own labels, phi and L instead of expanding E_v and running a
// flow. See DESIGN.md, "Cut witnesses".
type witness struct {
	reps []witRep // cone replicas (root first), then cut replicas
	cone int      // number of cone replicas in reps
}

// witRep is one witness replica. parent is the reps position of the cone
// replica that discovered it (-1 for the root and for cut replicas).
type witRep struct {
	orig, w, parent int32
}

// record overwrites the witness with the cut res found in x, reusing the
// witness's backing array.
func (wt *witness) record(x *expand.Expanded, res *cut.Result) {
	wt.reps = wt.reps[:0]
	for i, id := range res.Cone {
		n := &x.Nodes[id]
		wt.reps = append(wt.reps, witRep{int32(n.Orig), int32(n.W), int32(res.Parent[i])})
	}
	for _, id := range res.Cut {
		n := &x.Nodes[id]
		wt.reps = append(wt.reps, witRep{int32(n.Orig), int32(n.W), -1})
	}
	wt.cone = len(res.Cone)
}

// holds reports whether a fresh expansion at (labels, phi, L) followed by a
// K-cut check would succeed, judged from the witness alone. It requires
//
//  1. every cut replica to be a cut candidate: eff(u,w) <= L;
//  2. at most k cut replicas;
//  3. every cone replica to be expanded by the builder at L: mandatory
//     (eff > L), or a candidate whose candidate run along its discoverer
//     chain — one real fanin path from the root, so an upper bound on the
//     builder's shortest run — is at most lowDepth.
//
// Then the whole cone lies inside the expanded region with every fanin
// recorded, so the cut separates the root from the frontier with at most k
// candidates. run is scratch of at least the cone's length. An empty witness
// never holds.
func (wt *witness) holds(labels []int, phi, L, k, lowDepth int, run []int32) bool {
	if wt.cone == 0 || len(wt.reps)-wt.cone > k {
		return false
	}
	eff := func(r witRep) int { return labels[r.orig] - phi*int(r.w) + 1 }
	for _, r := range wt.reps[wt.cone:] {
		if eff(r) > L {
			return false
		}
	}
	// run[i] is childStep's candidate run of cone replica i along its
	// discoverer chain; 0 marks the root and mandatory replicas, which is
	// also what makes a candidate child of either start a run of 1.
	run[0] = 0
	for i := 1; i < wt.cone; i++ {
		r := wt.reps[i]
		if eff(r) > L {
			run[i] = 0
			continue
		}
		if run[i] = run[r.parent] + 1; int(run[i]) > lowDepth {
			return false
		}
	}
	return true
}

// witnessHolds is holds at the state's labels, phi and options, with the
// run scratch taken from the worker's arena.
func (s *state) witnessHolds(wt *witness, L int, ar *arena) bool {
	if cap(ar.witRun) < wt.cone {
		ar.witRun = make([]int32, wt.cone)
	}
	return wt.holds(s.labels, s.phi, L, s.opts.K, s.opts.LowDepth, ar.witRun[:wt.cone])
}
