// Package core implements INCREMENTALFD and GETNEXTRESULT (Figures 1
// and 2 of Cohen & Sagiv 2007) together with the engineering
// refinements of Section 7: hash-indexed Complete/Incomplete lists,
// block-based execution, and the alternative initialisations of
// Incomplete that minimise repeated work across the n per-relation
// passes of a full-disjunction computation.
//
// GETNEXTRESULT is written once, over a join predicate (Predicate):
// JCC for the exact full disjunction, or A(T) ≥ τ (package approx) for
// APPROXINCREMENTALFD (Figs 5–6), which changes nothing else. The
// enumerators, the pass driver, the parallel executor, the Fig 3
// queues of package rank and the deltas of package delta all take the
// predicate as a value.
package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Enumerator incrementally produces FDi(R) — the tuple sets of the full
// disjunction that contain a tuple of the seed relation — one result
// per Next call, in incremental polynomial time (Theorem 4.10); under
// an approximate join's predicate, AFDi(R, A, τ) (Theorem 6.6).
type Enumerator struct {
	w          *Walk
	seed       int
	stats      Stats
	incomplete Incomplete
	complete   *CompleteStore
	// prefix, set on a pass enumerator (NewPassEnumerator), walks the
	// relations before the pass: a result one of their tuples extends
	// enters Complete but is not emitted.
	prefix *Scanner
	// lo and hi bound the anchor window: only results whose
	// seed-relation member has index in [lo, hi) are enumerated (see
	// NewWindowEnumerator).
	lo, hi int32
}

// NewEnumerator prepares an enumeration of FDi(R) under p with the
// textbook initialisation (Fig 1 lines 1–4): Incomplete holds {t} for
// every tuple t of the seed relation that p admits — the full anchor
// window [0, Len).
func NewEnumerator(u *tupleset.Universe, p Predicate, seed int, opts Options) (*Enumerator, error) {
	return NewWindowEnumerator(u, p, seed, 0, SeedLen(u.DB, seed), opts)
}

// NewSeededEnumerator prepares an enumeration whose Incomplete list is
// initialised with the given tuple sets and whose database scans start
// at relation minRel (Section 7 drivers, PriorityIncrementalFD). The
// caller is responsible for the initialisation conditions of Remarks
// 4.3 and 4.5: every seed set qualifies under p and contains a tuple of
// the seed relation; every tuple of the seed relation is covered; and
// no two seed sets are contained in one result.
func NewSeededEnumerator(u *tupleset.Universe, p Predicate, seed int, opts Options, init []*tupleset.Set, minRel int) (*Enumerator, error) {
	e, err := newBareEnumerator(u, p, seed, opts, minRel)
	if err != nil {
		return nil, err
	}
	for _, s := range init {
		if !s.HasRelation(seed) {
			return nil, fmt.Errorf("core: seed set %s lacks a tuple of relation %d", s.Format(u.DB), seed)
		}
		e.incomplete.Push(s)
	}
	return e, nil
}

func newBareEnumerator(u *tupleset.Universe, p Predicate, seed int, opts Options, minRel int) (*Enumerator, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil join predicate")
	}
	if seed < 0 || seed >= u.DB.NumRelations() {
		return nil, fmt.Errorf("core: seed relation %d out of range [0,%d)", seed, u.DB.NumRelations())
	}
	e := &Enumerator{seed: seed, hi: int32(u.DB.Relation(seed).Len())}
	e.incomplete, e.complete = p.Lists(u, seed, opts)
	e.w = NewWalk(u, p, opts, minRel, &e.stats)
	return e, nil
}

// Stats returns the counters accumulated so far.
func (e *Enumerator) Stats() Stats { return e.stats }

// Complete exposes the store of already-produced results.
func (e *Enumerator) Complete() *CompleteStore { return e.complete }

// Incomplete snapshots the tuple sets awaiting extension in
// front-to-back order (the Incomplete column of Table 3).
func (e *Enumerator) Incomplete() []*tupleset.Set { return e.incomplete.Snapshot() }

// Next produces the next tuple set of FDi(R), or ok=false when the
// enumeration is finished. It performs one iteration of the while loop
// of Fig 1: pop a tuple set from Incomplete, extend it maximally, emit
// it, and enqueue the new candidate subsets discovered along the way.
// A pass enumerator runs further iterations while a tuple of an
// earlier relation extends the result (NewPassEnumerator).
func (e *Enumerator) Next() (*tupleset.Set, bool) {
	for {
		T, ok := e.incomplete.Pop()
		if !ok {
			return nil, false
		}
		result := getNextResult(e.w, e.seed, e.lo, e.hi, T, e.incomplete, e.complete)
		e.complete.Add(result)
		e.stats.Iterations++
		if resident := e.complete.Len() + e.incomplete.Len(); resident > e.stats.MaxResident {
			e.stats.MaxResident = resident
		}
		if e.prefix != nil && e.extendsIntoPrefix(result) {
			continue
		}
		e.stats.Emitted++
		return result, true
	}
}

// extendsIntoPrefix reports whether a tuple of a relation before the
// pass extends result: the extension walk of lines 2–6 over the prefix
// scope, stopping at the first tuple that keeps the union qualifying.
func (e *Enumerator) extendsIntoPrefix(result *tupleset.Set) bool {
	defer e.w.flush()
	extended := false
	e.prefix.ForEachExtension(result, func(ref relation.Ref) bool {
		extended = e.w.P.Extends(e.w, result, ref)
		return !extended
	})
	return extended
}

// All drains the enumeration and returns every tuple set of FDi(R).
func (e *Enumerator) All() []*tupleset.Set {
	var out []*tupleset.Set
	for {
		t, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, t)
	}
}

// Pool abstracts the Incomplete container of GETNEXTRESULT: the lists
// of Figs 1 and 5 or the priority queue of Fig 3 (package rank).
type Pool interface {
	// TryAbsorb implements lines 14–15: if the pool holds a set S whose
	// union with t qualifies, replace S by S ∪ t in place and report
	// true. anchor is t's seed-relation tuple.
	TryAbsorb(t *tupleset.Set, anchor relation.Ref, stats *Stats) bool
	// Push appends a new tuple set (line 18).
	Push(t *tupleset.Set)
}

// GetNextResult is GETNEXTRESULT (Fig 2) under w's predicate minus the
// pop of line 1, which the caller performs (the priority variant of
// Fig 3 pops from a heap instead of a list). T is extended into the
// result and returned; newly discovered candidate subsets land in pool.
//
//	lines 2–6: maximally extend T with tuples tg such that T ∪ {tg}
//	  qualifies (extend, over Predicate.Extends);
//	lines 7–18: for every remaining tuple tb, form the maximal
//	  qualifying subsets T' of T∪{tb} containing tb (Predicate.Subsets;
//	  one for JCC, footnote 3); if T' has a tuple of the seed relation
//	  and is not contained in a Complete set and cannot be merged into
//	  an Incomplete set, append it to Incomplete.
//
// Database scans run on w.Scan, which the caller keeps across calls;
// its scope and knobs (block size, buffer pool, join index) are the
// caller's.
//
// Precondition (Remark 4.3's coverage): every tuple of the seed
// relation that the predicate admits lies in a set of incomplete or of
// complete, and the caller adds each returned result, or a superset of
// it, to complete. With the join index the discovery walk relies on it
// to skip the singleton candidates {tb} that line 11 or 14 would
// discard (Scanner.ForEachDiscovery).
func GetNextResult(w *Walk, seed int, T *tupleset.Set, pool Pool, complete *CompleteStore) *tupleset.Set {
	return getNextResult(w, seed, 0, int32(w.U.DB.Relation(seed).Len()), T, pool, complete)
}

// getNextResult additionally takes the anchor window [lo, hi): a
// discovered candidate whose seed-relation tuple has an index outside
// it is dropped at line 9, exactly as a candidate with no seed tuple
// is. A seed-relation tb outside the window is skipped before its
// subsets are formed, since each of them holds tb and would be dropped
// there. With the full window [0, Len) this is GETNEXTRESULT verbatim.
func getNextResult(w *Walk, seed int, lo, hi int32, T *tupleset.Set, pool Pool, complete *CompleteStore) *tupleset.Set {
	defer w.flush()
	extend(w, T) // lines 2–6
	stats := w.Stats
	keep := func(tPrime *tupleset.Set) bool {
		anchor, hasSeed := tPrime.Member(seed)
		if !hasSeed || anchor.Idx < lo || anchor.Idx >= hi {
			return false // line 9: T' has no tuple of Ri in the window
		}
		if complete.ContainsSuperset(tPrime, anchor, stats) {
			return false // line 11: already represented in Complete
		}
		if pool.TryAbsorb(tPrime, anchor, stats) {
			return false // lines 14–15: merged into an Incomplete set
		}
		pool.Push(tPrime) // line 18
		return true
	}
	w.Scan.ForEachDiscovery(T, func(tb relation.Ref) bool {
		if !T.Has(tb) && (int(tb.Rel) != seed || tb.Idx >= lo && tb.Idx < hi) {
			w.P.Subsets(w, T, tb, keep) // line 8
		}
		return true
	})
	return T
}

// extend runs lines 2–6 on w.Scan: it extends T in place to a maximal
// qualifying set, adding each visited tuple tg with T ∪ {tg}
// qualifying (Predicate.Extends). Each sweep adds at least one tuple
// or terminates; a result has at most n tuples, so there are at most
// n+1 sweeps (cost O(s·n), Theorem 4.8). With the join index each
// sweep visits only the candidates of the current members; a tuple
// reachable only through a member added mid-sweep becomes a candidate
// in the next sweep, so the fixpoint is still maximal.
func extend(w *Walk, T *tupleset.Set) {
	for changed := true; changed; {
		changed = false
		w.Scan.ForEachExtension(T, func(ref relation.Ref) bool {
			if !T.Has(ref) && w.P.Extends(w, T, ref) {
				T.Add(ref)
				changed = true
			}
			return true
		})
	}
}
