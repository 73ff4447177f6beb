// Package approx implements Section 6 of Cohen & Sagiv 2007: pairwise
// similarities, approximate join functions built from them and from
// per-tuple probabilities (the acceptable/efficiently-computable
// classes), the τ-similar candidate source of the join-index scans, and
// the join predicate A(T) ≥ τ (Qualify). APPROXINCREMENTALFD (Figs 5–6)
// is Figs 1–2 with that predicate in place of JCC, so the core
// enumerators, cursors and deltas run it under Qualify's predicate and
// emit the (A,τ)-approximate full disjunction in incremental
// polynomial time (Theorem 6.6).
package approx

import (
	"repro/internal/relation"
)

// Sim supplies the symmetric similarity sim(t, t') between pairs of
// tuples from connected relations, with values in [0, 1]. The paper
// leaves the construction of sim open (edit distance, tf-idf, ...);
// this package ships three models.
type Sim interface {
	// Sim returns the similarity of the two referenced tuples. Callers
	// only invoke it for tuples of connected (distinct) relations.
	Sim(db *relation.Database, a, b relation.Ref) float64
}

// ExactSim degrades similarity to exact join consistency: 1 when the
// tuples join, 0 otherwise. Under ExactSim with any τ > 0 the
// approximate full disjunction collapses to the exact one (modulo
// probabilities), which the tests exploit.
type ExactSim struct{}

// Sim implements Sim.
func (ExactSim) Sim(db *relation.Database, a, b relation.Ref) float64 {
	if db.JoinConsistent(a, b) {
		return 1
	}
	return 0
}

// SimTable looks similarities up by tuple label pair, falling back to
// ExactSim for pairs absent from the table. It reconstructs Fig 4 of
// the paper, whose edges annotate specific labelled pairs.
type SimTable struct {
	table map[[2]string]float64
}

// NewSimTable builds a table; entries may be given in either label
// order.
func NewSimTable(entries map[[2]string]float64) *SimTable {
	t := &SimTable{table: make(map[[2]string]float64, 2*len(entries))}
	for k, v := range entries {
		t.table[k] = v
		t.table[[2]string{k[1], k[0]}] = v
	}
	return t
}

// Sim implements Sim.
func (t *SimTable) Sim(db *relation.Database, a, b relation.Ref) float64 {
	la, lb := db.Tuple(a).Label, db.Tuple(b).Label
	if v, ok := t.table[[2]string{la, lb}]; ok {
		return v
	}
	return (ExactSim{}).Sim(db, a, b)
}

// LevenshteinSim scores a pair of tuples by the worst normalised edit
// similarity over their shared attributes: sim = min over shared A of
// 1 − dist(a[A], b[A]) / max(|a[A]|, |b[A]|). A null on a shared
// attribute contributes 0 (nothing approximately matches the unknown),
// matching the exact semantics in the limit. This is the
// "sound-alike/misspelling" model motivating Section 6.
//
// Similarity is the one consumer that genuinely needs text, so it reads
// dictionary codes first — null and exact-match cases resolve with
// integer compares — and decodes real datums through Dict.Lookup only
// when an edit distance must actually be computed.
type LevenshteinSim struct{}

// Sim implements Sim.
func (LevenshteinSim) Sim(db *relation.Database, a, b relation.Ref) float64 {
	pairs := db.SharedPositions(int(a.Rel), int(b.Rel))
	if len(pairs) == 0 {
		return 0
	}
	dict := db.Dict()
	minSim := 1.0
	for _, p := range pairs {
		ca, cb := db.Code(a, p.P1), db.Code(b, p.P2)
		s := codeSim(dict, ca, cb)
		if s < minSim {
			minSim = s
		}
	}
	return minSim
}

func codeSim(dict *relation.Dict, ca, cb int32) float64 {
	if ca == relation.NullCode || cb == relation.NullCode {
		return 0
	}
	if ca == cb {
		return 1
	}
	sa, sb := dict.Datum(ca), dict.Datum(cb)
	maxLen := len(sa)
	if len(sb) > maxLen {
		maxLen = len(sb)
	}
	if maxLen == 0 {
		return 1
	}
	return 1 - float64(Levenshtein(sa, sb))/float64(maxLen)
}

// levStack is the longest DP row Levenshtein keeps on the stack, so
// comparing against a value shorter than levStack bytes allocates
// nothing; longer values fall back to heap rows.
const levStack = 33

// Levenshtein computes the classic edit distance (insert, delete,
// substitute, unit costs) between two strings, byte-wise.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	var buf [2 * levStack]int
	n := len(b) + 1
	prev, cur := buf[:levStack], buf[levStack:]
	if n > levStack {
		prev, cur = make([]int, n), make([]int, n)
	}
	prev, cur = prev[:n], cur[:n]
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1              // delete
			if v := cur[j-1] + 1; v < m { // insert
				m = v
			}
			if v := prev[j-1] + cost; v < m { // substitute
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}
