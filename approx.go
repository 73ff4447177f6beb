package fd

import "repro/internal/approx"

// Sim supplies pairwise tuple similarities in [0,1] for approximate
// joins (Section 6). Approximate queries name theirs in Query.Sim.
type Sim = approx.Sim

// ExactSim returns the degenerate similarity: 1 when two tuples are
// join consistent, 0 otherwise. With it, approximate full disjunctions
// collapse to exact ones.
func ExactSim() Sim { return approx.ExactSim{} }

// LevenshteinSim scores tuple pairs by the worst normalised edit
// similarity over shared attributes — the misspelling model motivating
// Section 6. Nulls contribute 0.
func LevenshteinSim() Sim { return approx.LevenshteinSim{} }
