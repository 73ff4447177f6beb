// Package batch implements BatchFD, the behavioural stand-in for the
// full-disjunction algorithm of Kanza & Sagiv [3] that the paper
// improves upon. The pseudocode of [3] is not reproduced in the paper,
// but its two properties that matter for every comparison are:
//
//  1. it emits no tuple until the entire full disjunction has been
//     computed ("The algorithm of [3] does not return any tuples until
//     all processing is complete", §1), and
//  2. its total cost is O(s²n⁵f²), a factor of s·n² above
//     INCREMENTALFD's O(sn³f²) (§4, discussion after Corollary 4.9).
//
// BatchFD therefore (a) materialises all per-seed enumerations with
// unindexed linear-scan lists, (b) recomputes every result once per
// contained tuple instead of filtering early, (c) runs a final
// quadratic subsumption/duplicate sweep over the buffered output, and
// (d) re-verifies each surviving set with a full JCC check — extra
// passes over the input that reproduce the heavier complexity profile.
// See DESIGN.md ("Substitutions") for the calibration argument.
package batch

import (
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Stats counts the work performed by BatchFD.
type Stats struct {
	// Candidates is the number of tuple sets materialised before the
	// final sweep (including cross-seed duplicates).
	Candidates int
	// JCCChecks counts join-consistency predicate evaluations.
	JCCChecks int64
	// SweepComparisons counts the pairwise comparisons of the final
	// subsumption sweep.
	SweepComparisons int64
}

// FullDisjunction computes FD(R) and returns it only after the whole
// computation finishes — no result is observable earlier, matching the
// non-incremental behaviour of [3].
func FullDisjunction(db *relation.Database) ([]*tupleset.Set, Stats) {
	u := tupleset.NewUniverse(db)
	var stats Stats
	var buffer []*tupleset.Set
	for seed := 0; seed < db.NumRelations(); seed++ {
		buffer = append(buffer, enumerateSeed(u, seed, &stats)...)
	}
	stats.Candidates = len(buffer)

	// Final sweep: drop duplicates and subsumed sets quadratically.
	var out []*tupleset.Set
	for i, s := range buffer {
		keep := true
		for j, t := range buffer {
			if i == j {
				continue
			}
			stats.SweepComparisons++
			if t.ContainsAll(s) && (s.Len() < t.Len() || j < i) {
				keep = false
				break
			}
		}
		if keep {
			// Re-verify with the assumption-free JCC predicate — an
			// extra full pass over the set against the whole database
			// schema, part of the deliberately heavier profile.
			stats.JCCChecks++
			if u.JCC(s) {
				out = append(out, s)
			}
		}
	}
	return out, stats
}

// enumerateSeed produces every maximal JCC set containing a tuple of
// the seed relation, with unindexed lists and no cross-seed reuse.
func enumerateSeed(u *tupleset.Universe, seed int, stats *Stats) []*tupleset.Set {
	db := u.DB
	var incomplete []*tupleset.Set
	rel := db.Relation(seed)
	for i := 0; i < rel.Len(); i++ {
		incomplete = append(incomplete, u.Singleton(relation.Ref{Rel: int32(seed), Idx: int32(i)}))
	}
	var complete []*tupleset.Set
	for len(incomplete) > 0 {
		T := incomplete[0]
		incomplete = incomplete[1:]
		// Maximal extension, re-scanning the whole database each sweep.
		for changed := true; changed; {
			changed = false
			db.ForEachRef(func(ref relation.Ref) bool {
				if T.Has(ref) {
					return true
				}
				stats.JCCChecks++
				if u.JCCWithTuple(T, ref, nil) {
					T.Add(ref)
					changed = true
				}
				return true
			})
		}
		// Candidate discovery with linear scans over both lists.
		db.ForEachRef(func(tb relation.Ref) bool {
			if T.Has(tb) {
				return true
			}
			tPrime := u.MaximalSubsetWith(T, tb, nil)
			stats.JCCChecks++
			if !tPrime.HasRelation(seed) {
				return true
			}
			for _, s := range complete {
				if s.ContainsAll(tPrime) {
					return true
				}
			}
			for k, s := range incomplete {
				stats.JCCChecks++
				if u.UnionJCC(s, tPrime, nil) {
					incomplete[k] = u.Union(s, tPrime)
					return true
				}
			}
			incomplete = append(incomplete, tPrime)
			return true
		})
		complete = append(complete, T)
	}
	return complete
}
