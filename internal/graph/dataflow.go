package graph

// InDegrees returns the in-degree of every component in the condensation
// DAG: the number of distinct predecessor components. A component with
// in-degree zero depends on nothing and is immediately ready.
func (s *SCCs) InDegrees() []int {
	deg := make([]int, s.NumComps())
	for c := range s.DAG {
		for _, d := range s.DAG[c] {
			deg[d]++
		}
	}
	return deg
}
