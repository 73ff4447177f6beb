// Package delta implements incremental full-disjunction maintenance:
// given a frozen database that has been extended in place by an
// appended tuple batch (relation.Database.Extend), it computes the
// delta result set — the maximal join-consistent-and-connected tuple
// sets the batch created — and patches old result lists across the
// transition instead of recomputing them.
//
// The algebra of an append. Appending tuples to relation r never
// invalidates the join consistency of an existing set and never makes
// an existing maximal set larger without involving a new tuple, so
//
//	FD(R') = { T ∈ FD(R) : no D ∈ Δ strictly contains T } ∪ Δ
//
// where Δ is the set of maximal JCC sets of R' containing an appended
// tuple. A tuple set holds at most one tuple of r, so Δ is exactly the
// anchor window [firstNew, Len) of the relation-r pass, enumerated
// directly by the window enumerator (core.NewWindowEnumerator):
// Incomplete is seeded with the appended singletons only, and
// discovered candidates whose relation-r member predates the append
// are discarded, so the enumeration does O(Δ-neighbourhood) work
// rather than O(FD). The same identity holds for the (A,τ)-approximate
// full disjunction with any acceptable monotone join function, whose
// predicate (approx.Qualify) the same window enumerator runs: a
// qualifying superset of an old maximal T must contain an appended
// tuple (T was maximal before), and its maximal qualifying superset is
// a member of Δ.
//
// Subsumption (the "no D strictly contains T" filter) is the existing
// signature/bitset containment check, Set.ContainsAll, which walks
// members and relation bits only — it is universe-independent, so old
// result sets bound to the pre-append universe compare correctly
// against delta sets bound to the extended one. Strictness needs no
// extra check: a delta set contains an appended tuple, an old result
// cannot, so D ⊇ T implies D ≠ T.
package delta

import (
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Delta is the result-set delta of one appended batch for one query
// family (exact, or one (A,τ) approximate family): the new maximal
// sets the batch created. Old results subsumed by the batch are not
// stored — they are exactly the sets an Added member strictly
// contains, and Patch removes them from any old result list.
type Delta struct {
	// Added holds the maximal sets of the extended database that
	// contain an appended tuple, in enumeration order. The sets are
	// bound to the extended database's universe.
	Added []*tupleset.Set
	// Stats accumulates the enumeration counters of the delta run.
	Stats core.Stats
}

// Compute computes the delta of the family of join predicate p: u is a
// universe over the extended database whose relation relIdx received
// appended tuples at indices firstNew..Len-1.
func Compute(u *tupleset.Universe, p core.Predicate, relIdx, firstNew int, opts core.Options) (*Delta, error) {
	e, err := core.NewWindowEnumerator(u, p, relIdx, firstNew, core.SeedLen(u.DB, relIdx), opts)
	if err != nil {
		return nil, err
	}
	d := &Delta{Added: e.All()}
	d.Stats = e.Stats()
	return d, nil
}

// Exact is Compute for the exact family (core.JCC).
func Exact(u *tupleset.Universe, relIdx, firstNew int, opts core.Options) (*Delta, error) {
	return Compute(u, core.JCC, relIdx, firstNew, opts)
}

// Append is the one-call library form: it extends db in place at
// relation relIdx (sharing memory with db, which stays valid and
// untouched) and computes the exact-mode delta of the batch. It
// returns the extended database and the delta.
func Append(db *relation.Database, relIdx int, tuples []relation.Tuple, opts core.Options) (*relation.Database, *Delta, error) {
	firstNew := db.Relation(relIdx).Len()
	ext, err := db.Extend(relIdx, tuples)
	if err != nil {
		return nil, nil, err
	}
	d, err := Exact(tupleset.NewUniverse(ext), relIdx, firstNew, opts)
	if err != nil {
		return nil, nil, err
	}
	return ext, d, nil
}

// Subsumes reports whether t — a result of the pre-append full
// disjunction — is strictly contained in a delta set and therefore no
// longer maximal in the extended database.
func (d *Delta) Subsumes(t *tupleset.Set) bool {
	for _, a := range d.Added {
		if a.ContainsAll(t) {
			return true
		}
	}
	return false
}

// Patch rewrites an old full-disjunction result list into the
// post-append one: old results a delta set subsumes are dropped, the
// delta sets are appended. It serves any result element type E: set
// reads an element's tuple set (an element without one is kept), and
// wrap makes an element of a delta set. The input slice is never
// mutated — callers share drained result lists across sessions — and
// the returned slice is freshly allocated. removed reports how many
// old results were dropped.
func Patch[E any](d *Delta, old []E, set func(E) *tupleset.Set, wrap func(*tupleset.Set) E) (patched []E, removed int) {
	patched = make([]E, 0, len(old)+len(d.Added))
	for _, e := range old {
		if t := set(e); t != nil && d.Subsumes(t) {
			removed++
			continue
		}
		patched = append(patched, e)
	}
	for _, a := range d.Added {
		patched = append(patched, wrap(a))
	}
	return patched, removed
}

// Bare is Patch's set accessor and wrapper for lists of bare tuple
// sets.
func Bare(t *tupleset.Set) *tupleset.Set { return t }
