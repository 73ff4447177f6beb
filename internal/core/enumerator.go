// Package core implements INCREMENTALFD and GETNEXTRESULT (Figures 1
// and 2 of Cohen & Sagiv 2007) together with the engineering
// refinements of Section 7: hash-indexed Complete/Incomplete lists,
// block-based execution, and the alternative initialisations of
// Incomplete that minimise repeated work across the n per-relation
// passes of a full-disjunction computation.
package core

import (
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Enumerator incrementally produces FDi(R) — the tuple sets of the full
// disjunction that contain a tuple of the seed relation — one result
// per Next call, in incremental polynomial time (Theorem 4.10).
type Enumerator struct {
	u          *tupleset.Universe
	seed       int
	stats      Stats
	incomplete *IncompleteQueue
	complete   *CompleteStore
	scan       *Scanner
	// prefix, set on a pass enumerator (NewPassEnumerator), walks the
	// relations before the pass: a result one of their tuples extends
	// enters Complete but is not emitted.
	prefix *Scanner
	// lo and hi bound the anchor window: only results whose
	// seed-relation member has index in [lo, hi) are enumerated (see
	// NewWindowEnumerator).
	lo, hi int32
}

// NewEnumerator prepares an enumeration of FDi(R) with the textbook
// initialisation (Fig 1 lines 1–4): Incomplete holds {t} for every
// tuple t of the seed relation — the full anchor window [0, Len).
func NewEnumerator(u *tupleset.Universe, seed int, opts Options) (*Enumerator, error) {
	return NewWindowEnumerator(u, seed, 0, SeedLen(u.DB, seed), opts)
}

// NewSeededEnumerator prepares an enumeration whose Incomplete list is
// initialised with the given tuple sets and whose database scans start
// at relation minRel (Section 7 drivers, PriorityIncrementalFD). The
// caller is responsible for the initialisation conditions of Remarks
// 4.3 and 4.5: every seed set is JCC and contains a tuple of the seed
// relation; every tuple of the seed relation is covered; and no two
// seed sets are contained in one result.
func NewSeededEnumerator(u *tupleset.Universe, seed int, opts Options, init []*tupleset.Set, minRel int) (*Enumerator, error) {
	e, err := newBareEnumerator(u, seed, opts, minRel)
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

func newBareEnumerator(u *tupleset.Universe, seed int, opts Options, minRel int) (*Enumerator, error) {
	if seed < 0 || seed >= u.DB.NumRelations() {
		return nil, fmt.Errorf("core: seed relation %d out of range [0,%d)", seed, u.DB.NumRelations())
	}
	e := &Enumerator{
		u:          u,
		seed:       seed,
		incomplete: NewIncompleteQueue(u, seed, opts.UseIndex),
		complete:   NewCompleteStore(u, opts.UseIndex),
	}
	e.scan = NewScanner(u.DB, opts, minRel, &e.stats)
	e.hi = int32(u.DB.Relation(seed).Len())
	return e, nil
}

// Stats returns the counters accumulated so far.
func (e *Enumerator) Stats() Stats { return e.stats }

// Complete exposes the store of already-produced results.
func (e *Enumerator) Complete() *CompleteStore { return e.complete }

// Incomplete snapshots the tuple sets awaiting extension in
// front-to-back order (the Incomplete column of Table 3).
func (e *Enumerator) Incomplete() []*tupleset.Set { return e.incomplete.Snapshot() }

// Pending returns the number of tuple sets currently awaiting
// extension.
func (e *Enumerator) Pending() int { return e.incomplete.Len() }

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
		result := getNextResult(e.u, e.seed, e.scan, e.lo, e.hi, T, e.incomplete, e.complete, &e.stats)
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
// scope, stopping at the first tuple that keeps the union JCC.
func (e *Enumerator) extendsIntoPrefix(result *tupleset.Set) bool {
	var sig tupleset.SigCounters
	defer e.stats.AddSig(&sig)
	extended := false
	e.prefix.ForEachExtension(result, func(ref relation.Ref) bool {
		e.stats.JCCChecks++
		extended = e.u.JCCWithTupleCounted(result, ref, &sig)
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

// Pool abstracts the Incomplete container of GETNEXTRESULT: the FIFO
// list of Fig 1 or the priority queue of Fig 3 (package rank).
type Pool interface {
	// TryAbsorb implements lines 14–15: if the pool holds a set S with
	// JCC(S ∪ t), replace S by S ∪ t in place and report true. anchor
	// is t's seed-relation tuple.
	TryAbsorb(t *tupleset.Set, anchor relation.Ref, stats *Stats) bool
	// Push appends a new tuple set (line 18).
	Push(t *tupleset.Set)
}

// GetNextResult is GETNEXTRESULT (Fig 2) minus the pop of line 1, which
// the caller performs (the priority variant of Fig 3 pops from a heap
// instead of a FIFO). T is mutated into the result and returned.
//
//	lines 2–6: maximally extend T with tuples tg such that JCC(T∪{tg});
//	lines 7–18: for every remaining tuple tb, form the maximal JCC
//	  subset T' of T∪{tb} containing tb (footnote 3); if T' has a tuple
//	  of the seed relation and is not contained in a Complete set and
//	  cannot be merged into an Incomplete set, append it to Incomplete.
//
// Database scans run on scan, a NewScanner that the caller keeps
// across calls; its scope and knobs (block size, buffer pool, join
// index) are the caller's.
//
// Precondition (Remark 4.3's coverage): every tuple of the seed
// relation lies in a set of incomplete or of complete, and the caller
// adds each returned result, or a superset of it, to complete. With
// the join index the discovery walk relies on it to skip the
// singleton candidates {tb} that line 11 or 14 would discard
// (Scanner.ForEachDiscovery).
func GetNextResult(u *tupleset.Universe, seed int, scan *Scanner, T *tupleset.Set,
	incomplete Pool, complete *CompleteStore, stats *Stats) *tupleset.Set {
	return getNextResult(u, seed, scan, 0, int32(u.DB.Relation(seed).Len()), T, incomplete, complete, stats)
}

// getNextResult additionally takes the anchor window [lo, hi): a
// discovered candidate whose seed-relation tuple has an index outside
// it is dropped at line 9, exactly as a candidate with no seed tuple
// is. A seed-relation tb outside the window is skipped before its T'
// is formed, since T' holds tb and would be dropped there. With the
// full window [0, Len) this is GETNEXTRESULT verbatim.
func getNextResult(u *tupleset.Universe, seed int, scan *Scanner, lo, hi int32, T *tupleset.Set,
	incomplete Pool, complete *CompleteStore, stats *Stats) *tupleset.Set {

	var sig tupleset.SigCounters
	defer stats.AddSig(&sig)

	// Lines 2–6: extension to a maximal JCC set. Each sweep adds at
	// least one tuple or terminates; a result has at most n tuples, so
	// there are at most n+1 sweeps (cost O(s·n), Theorem 4.8). With the
	// join index, each sweep visits only equi-match candidates of the
	// current members; a tuple reachable only through a member added
	// mid-sweep becomes a candidate in the next sweep, so the fixpoint
	// is still a maximal JCC set.
	for changed := true; changed; {
		changed = false
		scan.ForEachExtension(T, func(ref relation.Ref) bool {
			if T.Has(ref) {
				return true
			}
			stats.JCCChecks++
			if u.JCCWithTupleCounted(T, ref, &sig) {
				T.Add(ref)
				changed = true
			}
			return true
		})
	}

	// Lines 7–18: discover new candidate subsets. One candidate buffer
	// is recycled across the whole scan — the containment and absorb
	// probes do not retain it — and is replaced only when a candidate
	// survives every filter and enters Incomplete.
	tPrime := u.NewSet()
	scan.ForEachDiscovery(T, func(tb relation.Ref) bool {
		if T.Has(tb) || int(tb.Rel) == seed && (tb.Idx < lo || tb.Idx >= hi) {
			return true
		}
		u.MaximalSubsetInto(tPrime, T, tb, &sig)
		stats.JCCChecks++
		anchor, hasSeed := tPrime.Member(seed)
		if !hasSeed || anchor.Idx < lo || anchor.Idx >= hi {
			return true // line 9: T' has no tuple of Ri in the window
		}
		if complete.ContainsSuperset(tPrime, anchor, stats) {
			return true // line 11: already represented in Complete
		}
		if incomplete.TryAbsorb(tPrime, anchor, stats) {
			return true // lines 14–15: merged into an Incomplete set
		}
		incomplete.Push(tPrime) // line 18
		tPrime = u.NewSet()
		return true
	})
	u.ReleaseSet(tPrime)
	return T
}
