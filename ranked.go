package fd

import "repro/internal/rank"

// RankFunc is a ranking function over tuple sets (Section 5). Built-in
// implementations: FMax (monotonically 1-determined), PairSum
// (2-determined), PaperTriple (3-determined) and FSum (not
// c-determined; usable only with brute force — top-(1,fsum) is NP-hard,
// Proposition 5.1).
type RankFunc = rank.Func

// FMax returns the ranking function fmax(T) = max{imp(t) | t ∈ T}.
func FMax() RankFunc { return rank.FMax{} }

// FSum returns fsum(T) = Σ imp(t). It cannot drive ranked enumeration.
func FSum() RankFunc { return rank.FSum{} }

// PairSum returns the monotonically 2-determined function
// f(T) = max over connected pairs of imp sums.
func PairSum() RankFunc { return rank.PairSum() }

// PaperTriple returns the paper's 3-determined example
// f(T) = max{imp(t1) + imp(t2)·imp(t3) | {t1,t2,t3} ⊆ T connected}.
func PaperTriple() RankFunc { return rank.PaperTriple() }
