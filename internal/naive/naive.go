// Package naive provides exponential-time reference implementations
// ("oracles") of the definitions in Cohen & Sagiv 2007: the full
// disjunction (Definition 2.1), the approximate full disjunction
// (Definition 6.2), top-k under arbitrary ranking functions, and the
// natural join. They exist to validate the polynomial algorithms on
// small instances in unit and property tests, and to demonstrate the
// NP-hardness result of Proposition 5.1 empirically. They must never be
// used on large inputs: scripts/check_no_oracle.sh, a CI step, fails
// when the library or fdserve, fdcli or fdgen links this package (only
// fdbench does, for its brute-force comparisons).
//
// The oracles deliberately enumerate by full database sweeps (no
// candidate index), but their join-consistency checks go through the
// same columnar dictionary-code predicates as the real algorithms, so
// agreement between oracle and algorithm also exercises the encoding.
package naive

import (
	"sort"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Valid is a predicate over connected tuple sets that is downward
// closed on connected subsets: if Valid(T) and T' ⊆ T is connected,
// then Valid(T'). JCC and every acceptable approximate-join threshold
// predicate A(T) ≥ τ have this property, which is what makes one-tuple-
// at-a-time enumeration complete.
type Valid func(*tupleset.Set) bool

// EnumerateConnected returns every connected tuple set T ⊆ Tuples(R)
// with valid(T), by breadth-first extension from singletons. The result
// is deterministic (sorted by canonical key length then key).
func EnumerateConnected(u *tupleset.Universe, valid Valid) []*tupleset.Set {
	seen := make(map[string]*tupleset.Set)
	var frontier []*tupleset.Set
	u.DB.ForEachRef(func(ref relation.Ref) bool {
		s := u.Singleton(ref)
		if valid(s) {
			if _, ok := seen[s.Key()]; !ok {
				seen[s.Key()] = s
				frontier = append(frontier, s)
			}
		}
		return true
	})
	for len(frontier) > 0 {
		var next []*tupleset.Set
		for _, s := range frontier {
			u.DB.ForEachRef(func(ref relation.Ref) bool {
				if s.Has(ref) || s.HasRelation(int(ref.Rel)) {
					return true
				}
				if !u.ConnectedWith(s, ref) {
					return true
				}
				ext := s.Clone().Add(ref)
				if !valid(ext) {
					return true
				}
				if _, ok := seen[ext.Key()]; !ok {
					seen[ext.Key()] = ext
					next = append(next, ext)
				}
				return true
			})
		}
		frontier = next
	}
	out := make([]*tupleset.Set, 0, len(seen))
	for _, s := range seen {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		ki, kj := out[i].Key(), out[j].Key()
		if len(ki) != len(kj) {
			return len(ki) < len(kj)
		}
		return ki < kj
	})
	return out
}

// MaximalSets returns the maximal sets among the connected valid sets:
// those with no one-tuple valid connected extension. For downward-
// closed predicates this coincides with set-inclusion maximality.
func MaximalSets(u *tupleset.Universe, valid Valid) []*tupleset.Set {
	all := EnumerateConnected(u, valid)
	var out []*tupleset.Set
	for _, s := range all {
		maximal := true
		u.DB.ForEachRef(func(ref relation.Ref) bool {
			if s.Has(ref) || s.HasRelation(int(ref.Rel)) {
				return true
			}
			if !u.ConnectedWith(s, ref) {
				return true
			}
			if valid(s.Clone().Add(ref)) {
				maximal = false
				return false
			}
			return true
		})
		if maximal {
			out = append(out, s)
		}
	}
	return out
}

// FullDisjunction computes FD(R) by brute force (Definition 2.1).
func FullDisjunction(db *relation.Database) []*tupleset.Set {
	u := tupleset.NewUniverse(db)
	return MaximalSets(u, func(s *tupleset.Set) bool { return u.JCC(s) })
}

// ApproxFullDisjunction computes AFD(R, A, τ) by brute force
// (Definition 6.2) for an acceptable approximate-join score function.
func ApproxFullDisjunction(db *relation.Database, score func(*tupleset.Set) float64, tau float64) []*tupleset.Set {
	u := tupleset.NewUniverse(db)
	return MaximalSets(u, func(s *tupleset.Set) bool { return score(s) >= tau })
}

// TopK returns the k highest-ranking tuple sets of FD(R) under rank,
// breaking ties deterministically by canonical key. It works for any
// ranking function — including fsum, for which no polynomial algorithm
// exists unless P=NP (Proposition 5.1) — because it simply materialises
// the whole full disjunction first.
func TopK(db *relation.Database, rank func(*tupleset.Set) float64, k int) []*tupleset.Set {
	fd := FullDisjunction(db)
	sort.Slice(fd, func(i, j int) bool {
		ri, rj := rank(fd[i]), rank(fd[j])
		if ri != rj {
			return ri > rj
		}
		return fd[i].Key() < fd[j].Key()
	})
	if k > len(fd) {
		k = len(fd)
	}
	return fd[:k]
}

// NaturalJoinNonEmpty reports whether the natural join of all relations
// is non-empty, i.e. whether FD(R) contains a tuple set with a tuple
// from every relation. Deciding this is NP-complete in general (Maier,
// Sagiv & Yannakakis), which is the source of the hardness in
// Proposition 5.1.
func NaturalJoinNonEmpty(db *relation.Database) bool {
	for _, s := range FullDisjunction(db) {
		if s.Len() == db.NumRelations() {
			return true
		}
	}
	return false
}
