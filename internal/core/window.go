package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// NewWindowEnumerator prepares the enumeration of one anchor window of
// FDi(R) under p: it produces exactly the results of FDi(R) whose seed-relation
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
//
// The argument carries over to an approximate join (Fig 5): a
// qualifying set holds at most one seed-relation tuple, and its anchor
// is invariant under extension and merges (two seed-relation tuples
// always conflict), so seeding with the window's qualifying singletons
// (Predicate.Admit) restricts Figs 5–6 to the window the same way.
func NewWindowEnumerator(u *tupleset.Universe, p Predicate, seed, lo, hi int, opts Options) (*Enumerator, error) {
	return newWindowEnumerator(u, p, seed, lo, hi, opts, 0)
}

// NewPassEnumerator prepares the anchor window [lo, hi) of pass i (the
// relation pass) of the restart strategy: it produces exactly the results of
// FD(R) whose minimal relation is i and whose Ri member has index in
// [lo, hi). The enumeration runs Fig 1 over the relations Ri..Rn only
// (its scans start at relation i); each result enters Complete, and is
// emitted unless a tuple of a relation before i extends it
// (extendsIntoPrefix, counted in Stats like every other walk).
//
// Why this is exact. Write R≥i for the relations Ri..Rn and R<i for
// the rest. S ∈ FD(R) has minimal relation i exactly when S is a
// maximal JCC set over R≥i, holds an Ri tuple, and no single tuple of
// R<i extends it. Forward: S lies in R≥i and is maximal in R, hence in R≥i, and
// a JCC S ∪ {t} would contradict that maximality. Backward: if S is not
// maximal in R, some JCC S ∪ X with X non-empty exists; it is
// connected, so some x ∈ X sits on a relation adjacent to one of S's,
// and S ∪ {x} is connected and, as a subset of a join-consistent set,
// join consistent. S is maximal over R≥i, so x is a tuple of R<i that
// extends S. The kept results of pass i are therefore exactly the
// members of FD(R) with minimal relation i: the passes partition FD(R)
// with no ownership filter. The anchor-window argument of
// NewWindowEnumerator applies unchanged within the suffix.
//
// A pass never does more iterations than the full-database pass. Write
// FDi(R≥i) for the maximal JCC sets over R≥i holding an Ri tuple. Each
// of them extends to a maximal set of FD(R), which holds its Ri
// tuple; two sets mapped to one result share that tuple, so their
// union is connected and, inside the result, join consistent — a JCC
// set over R≥i containing both, so by maximality they are equal. The
// map FDi(R≥i) → FDi(R) is therefore injective and the iterations (one
// per member of FDi(R≥i)) are at most |FDi(R)|.
//
// Both facts use only that a subset of a qualifying connected set that
// is itself connected qualifies — monotonicity — so they carry over to
// the predicate A(T) ≥ τ of every acceptable approximate join.
func NewPassEnumerator(u *tupleset.Universe, p Predicate, pass, lo, hi int, opts Options) (*Enumerator, error) {
	e, err := newWindowEnumerator(u, p, pass, lo, hi, opts, pass)
	if err != nil {
		return nil, err
	}
	e.prefix = e.w.Scan.Prefix()
	return e, nil
}

func newWindowEnumerator(u *tupleset.Universe, p Predicate, seed, lo, hi int, opts Options, minRel int) (*Enumerator, error) {
	e, err := newBareEnumerator(u, p, seed, opts, minRel)
	if err != nil {
		return nil, err
	}
	if n := u.DB.Relation(seed).Len(); lo < 0 || hi > n || lo > hi {
		return nil, fmt.Errorf("core: anchor window [%d,%d) outside [0,%d]", lo, hi, n)
	}
	e.lo, e.hi = int32(lo), int32(hi)
	for i := lo; i < hi; i++ {
		if s := u.Singleton(relation.Ref{Rel: int32(seed), Idx: int32(i)}); p.Admit(e.w, s) {
			e.incomplete.Push(s)
		}
	}
	return e, nil
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
