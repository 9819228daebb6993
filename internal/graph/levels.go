package graph

// Levels returns the longest-path layering of the condensation DAG: a
// component with no predecessors has level 0, and otherwise its level is one
// more than the maximum level among its predecessors. Every condensation
// edge therefore goes from a strictly lower to a strictly higher level, so
// components sharing a level have no data dependencies between them — the
// property the parallel label scheduler relies on to run whole components
// concurrently within a level.
func (s *SCCs) Levels() []int {
	levels := make([]int, s.NumComps())
	for _, c := range s.Order { // topological, so predecessors are final
		for _, d := range s.DAG[c] {
			if levels[c]+1 > levels[d] {
				levels[d] = levels[c] + 1
			}
		}
	}
	return levels
}
