package approx

import (
	"slices"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Scanner builds the scanner of an (A, τ) enumeration over the
// relations minRel..n-1 of u's database, accounting into stats. With
// opts.UseJoinIndex it derives the candidate source of the join-index
// walks from A and its Sim (core.Candidates argues why the walks stay
// exhaustive):
//
//   - Amin and Aprod drop the tuples t with A({t}) < τ, and probe the
//     postings of a member's code under ExactSim, or of every code of
//     the probed column τ-similar to it under LevenshteinSim
//     (neighbours, memoised for the scanner's lifetime).
//   - Any other Join, or a SimTable, whose label-keyed similarities
//     bound no code, keeps the full sweep.
//
// Without opts.UseJoinIndex every walk is the sweep.
func (q qualifier) Scanner(u *tupleset.Universe, opts core.Options, minRel int, stats *core.Stats) *core.Scanner {
	a, tau := q.a, q.tau
	db := u.DB
	var sim Sim
	switch j := a.(type) {
	case *Amin:
		sim = j.S
	case *Aprod:
		sim = j.S
	}
	var c core.Candidates
	switch sim.(type) {
	case ExactSim:
	case LevenshteinSim:
		c.Postings = &neighbours{db: db, tau: tau, memo: map[probe][]int32{}}
	default:
		opts.UseJoinIndex = false
	}
	if opts.UseJoinIndex {
		c.Live = liveTuples(u, a, tau)
	}
	return core.NewScanner(db, opts, minRel, stats, c)
}

// liveTuples marks, per relation, the tuples t with A({t}) ≥ τ: the
// only tuples a qualifying set can hold.
func liveTuples(u *tupleset.Universe, a Join, tau float64) [][]bool {
	live := make([][]bool, u.DB.NumRelations())
	for r := range live {
		live[r] = make([]bool, u.DB.Relation(r).Len())
		for i := range live[r] {
			s := u.Singleton(relation.Ref{Rel: int32(r), Idx: int32(i)})
			live[r][i] = a.Score(u, s) >= tau
			u.ReleaseSet(s)
		}
	}
	return live
}

// probe names one posting lookup: a column and the probing code.
type probe struct{ rel, pos, code int32 }

// neighbours is the candidate source of LevenshteinSim: the postings of
// column (rel, pos) for a probing code c are the ascending union of the
// posting lists of every code c′ of the column with
// codeSim(c, c′) ≥ τ. Each probe is computed once and memoised, so a
// scanner owns its neighbours and never shares them between
// goroutines.
type neighbours struct {
	db   *relation.Database
	tau  float64
	memo map[probe][]int32
}

// Postings implements core.PostingSource.
func (nb *neighbours) Postings(rel, pos int, code int32) []int32 {
	k := probe{int32(rel), int32(pos), code}
	if tuples, ok := nb.memo[k]; ok {
		return tuples
	}
	dict := nb.db.Dict()
	la := len(dict.Datum(code))
	var tuples []int32
	nb.db.Index().ForEachList(rel, pos, func(c int32, list []int32) {
		if lengthAdmits(la, len(dict.Datum(c)), nb.tau) && codeSim(dict, code, c) >= nb.tau {
			tuples = append(tuples, list...)
		}
	})
	slices.Sort(tuples) // a tuple carries one code per column: no duplicates
	nb.memo[k] = tuples
	return tuples
}

// lengthAdmits is the length filter of approximate string joins: two
// values whose byte lengths la and lb differ by more than
// (1 − τ)·max(la, lb) are never τ-similar, because their edit distance
// is at least |la − lb|. It evaluates the bound in codeSim's own
// arithmetic, 1 − |la − lb| / max ≥ τ, whose rounding is monotone in
// the distance, so it never drops a pair codeSim would keep.
func lengthAdmits(la, lb int, tau float64) bool {
	maxLen := max(la, lb)
	if maxLen == 0 {
		return true
	}
	return 1-float64(max(la-lb, lb-la))/float64(maxLen) >= tau
}
