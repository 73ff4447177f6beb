package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// NewWindowEnumerator prepares the enumeration of one anchor window of
// FDi(R): it produces exactly the results of FDi(R) whose seed-relation
// member — the set's anchor — has index in [lo, hi), with the same
// polynomial-delay machinery as a full pass. The window [0, Len) is the
// full pass of Fig 1 (NewEnumerator); a parallel block task runs its
// block's slice; the delta of an append to relation seed is the window
// [firstNew, Len) of the extended database (internal/delta).
//
// Why a window is exact. A tuple set holds at most one tuple per
// relation, so every set of FDi(R) has exactly one anchor. The anchor
// of an Incomplete set is invariant for its whole life: extension
// never adds a second seed-relation tuple (same-relation conflict),
// and TryAbsorb merges only sets sharing their anchor (two distinct
// seed-relation tuples are never JCC). The candidates Theorem 4.10's
// completeness argument needs to reach a result anchored at t are
// themselves anchored at t. Seeding Incomplete with the window's
// singletons therefore satisfies the initialisation conditions of
// Remark 4.3 restricted to the window, and getNextResult drops, at
// line 9, discovered candidates anchored outside it — they grow into
// results of other windows. Soundness (every emitted set is maximal
// JCC with an anchor in the window) and completeness (every such set
// is emitted once) then follow from Theorem 4.10's argument verbatim,
// with "tuples of Ri" read as "tuples of Ri in [lo, hi)" throughout.
// Disjoint windows covering [0, Len) thus partition FDi(R).
func NewWindowEnumerator(u *tupleset.Universe, seed, lo, hi int, opts Options) (*Enumerator, error) {
	e, err := newBareEnumerator(u, seed, opts, 0)
	if err != nil {
		return nil, err
	}
	if err := CheckWindow(u.DB, seed, lo, hi); err != nil {
		return nil, err
	}
	e.lo, e.hi = int32(lo), int32(hi)
	for i := lo; i < hi; i++ {
		e.incomplete.Push(u.Singleton(relation.Ref{Rel: int32(seed), Idx: int32(i)}))
	}
	return e, nil
}

// CheckWindow rejects an anchor window [lo, hi) that is not a range of
// tuple indices of relation seed (a valid relation of db).
func CheckWindow(db *relation.Database, seed, lo, hi int) error {
	if n := db.Relation(seed).Len(); lo < 0 || hi > n || lo > hi {
		return fmt.Errorf("core: anchor window [%d,%d) outside [0,%d]", lo, hi, n)
	}
	return nil
}

// SeedLen returns the tuple count of relation seed of db — the end of
// its full anchor window — or 0 when seed is not a relation of db (the
// window constructors then reject the seed).
func SeedLen(db *relation.Database, seed int) int {
	if seed < 0 || seed >= db.NumRelations() {
		return 0
	}
	return db.Relation(seed).Len()
}
