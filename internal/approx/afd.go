package approx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Enumerator incrementally produces AFDi(R, A, τ) — the tuple sets of
// the (A,τ)-approximate full disjunction that contain a tuple of the
// seed relation — one result per Next call (APPROXINCREMENTALFD and
// APPROXGETNEXTRESULT, Figs 5–6).
type Enumerator struct {
	u          *tupleset.Universe
	seed       int
	a          Join
	tau        float64
	stats      core.Stats
	scan       *core.Scanner
	incomplete []*tupleset.Set
	complete   *core.CompleteStore
	// prefix, set on a pass enumerator (NewPassEnumerator), walks the
	// relations before the pass: a result one of their tuples extends
	// enters Complete but is not emitted.
	prefix *core.Scanner
	// lo and hi bound the anchor window (see NewWindowEnumerator).
	lo, hi int32
}

// NewEnumerator prepares the enumeration of AFDi(R, A, τ): the full
// anchor window [0, Len) of NewWindowEnumerator.
func NewEnumerator(db *relation.Database, seed int, a Join, tau float64, opts core.Options) (*Enumerator, error) {
	return NewWindowEnumerator(db, seed, 0, core.SeedLen(db, seed), a, tau, opts)
}

// NewWindowEnumerator prepares the enumeration of the members of
// AFDi(R, A, τ) whose seed-relation member has index in [lo, hi).
// Incomplete is initialised with {t} for every such tuple t with
// A({t}) ≥ τ (Fig 5, line 3 — the starred initialisation change).
// The argument of core.NewWindowEnumerator carries over: a qualifying
// set holds at most one seed-relation tuple, and its anchor is
// invariant under extension and TryAbsorb merges (two seed-relation
// tuples always conflict), so seeding with the window's qualifying
// singletons and dropping discovered candidates anchored outside it
// restricts Figs 5–6 to the window without disturbing their maximality
// or uniqueness guarantees. Database scans honour the engine knobs of
// opts: block size, buffer pool, and candidate-only scans over the
// join index (NewScanner), which the enumerator builds once.
func NewWindowEnumerator(db *relation.Database, seed, lo, hi int, a Join, tau float64, opts core.Options) (*Enumerator, error) {
	return newWindowEnumerator(db, seed, lo, hi, a, tau, opts, 0)
}

// NewPassEnumerator prepares the anchor window [lo, hi) of pass i (the
// relation pass) of APPROXINCREMENTALFD: it produces exactly the
// members of AFD(R, A, τ) whose minimal relation is i and whose Ri
// member has index in [lo, hi). Figs 5–6 run over relations Ri..Rn
// only, and a result is emitted unless one tuple of a relation before
// i extends it to a qualifying set. The argument of
// core.NewPassEnumerator carries over verbatim: it uses only that a
// connected subset of a qualifying set qualifies, which every
// acceptable (monotone) join function guarantees.
func NewPassEnumerator(db *relation.Database, pass, lo, hi int, a Join, tau float64, opts core.Options) (*Enumerator, error) {
	e, err := newWindowEnumerator(db, pass, lo, hi, a, tau, opts, pass)
	if err != nil {
		return nil, err
	}
	e.prefix = e.scan.Prefix()
	return e, nil
}

func newWindowEnumerator(db *relation.Database, seed, lo, hi int, a Join, tau float64, opts core.Options, minRel int) (*Enumerator, error) {
	if seed < 0 || seed >= db.NumRelations() {
		return nil, fmt.Errorf("approx: seed relation %d out of range [0,%d)", seed, db.NumRelations())
	}
	if a == nil {
		return nil, fmt.Errorf("approx: nil approximate join function")
	}
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("approx: threshold %v outside (0,1]", tau)
	}
	if err := core.CheckWindow(db, seed, lo, hi); err != nil {
		return nil, err
	}
	u := tupleset.NewUniverse(db)
	e := &Enumerator{u: u, seed: seed, a: a, tau: tau, lo: int32(lo), hi: int32(hi),
		// Always hash-indexed (pre-Options behaviour): UseIndex governs
		// the §7 lists of the exact engine, not the dup-check store.
		complete: core.NewCompleteStore(u, true)}
	e.scan = NewScanner(u, a, tau, opts, minRel, &e.stats)
	for i := lo; i < hi; i++ {
		s := u.Singleton(relation.Ref{Rel: int32(seed), Idx: int32(i)})
		e.stats.JCCChecks++
		if a.Score(u, s) >= tau {
			e.incomplete = append(e.incomplete, s)
		}
	}
	return e, nil
}

// Stats returns the accumulated counters.
func (e *Enumerator) Stats() core.Stats { return e.stats }

// Next produces the next result of AFDi(R, A, τ), or ok=false when the
// enumeration is done. A pass enumerator runs further iterations while
// a tuple of an earlier relation extends the result.
func (e *Enumerator) Next() (*tupleset.Set, bool) {
	for len(e.incomplete) > 0 {
		// Line 1: remove a tuple set from Incomplete.
		T := e.incomplete[0]
		e.incomplete = e.incomplete[1:]
		e.stats.Iterations++

		result := getNextResult(e.u, e.seed, e.a, e.tau, e.scan, e.lo, e.hi, T, (*fifoPool)(e), e.complete, &e.stats)

		e.complete.Add(result)
		if resident := len(e.incomplete) + e.complete.Len(); resident > e.stats.MaxResident {
			e.stats.MaxResident = resident
		}
		if e.prefix != nil && e.extendsIntoPrefix(result) {
			continue
		}
		e.stats.Emitted++
		return result, true
	}
	return nil, false
}

// extendsIntoPrefix reports whether a tuple of a relation before the
// pass extends result to a qualifying set: the extension walk of lines
// 2–6 over the prefix scope, stopping at the first such tuple.
func (e *Enumerator) extendsIntoPrefix(result *tupleset.Set) bool {
	extended := false
	e.prefix.ForEachExtension(result, func(ref relation.Ref) bool {
		extended = extension(e.u, e.a, e.tau, result, ref, &e.stats) != nil
		return !extended
	})
	return extended
}

// extension returns T ∪ {ref} when ref lies on a relation T lacks, is
// connected to T, and the union qualifies (A ≥ τ) — the starred test
// of lines 2–6 — and nil otherwise.
func extension(u *tupleset.Universe, a Join, tau float64, T *tupleset.Set, ref relation.Ref, stats *core.Stats) *tupleset.Set {
	if T.HasRelation(int(ref.Rel)) || !u.ConnectedWith(T, ref) {
		return nil
	}
	ext := T.Clone().Add(ref)
	stats.JCCChecks++
	if a.Score(u, ext) >= tau {
		return ext
	}
	return nil
}

// fifoPool adapts Enumerator's slice-backed Incomplete list to
// core.Pool, merging under the starred predicate A(S ∪ t) ≥ τ of
// lines 14–15.
type fifoPool Enumerator

func (p *fifoPool) Push(t *tupleset.Set) { p.incomplete = append(p.incomplete, t) }

func (p *fifoPool) TryAbsorb(t *tupleset.Set, anchor relation.Ref, stats *core.Stats) bool {
	e := (*Enumerator)(p)
	for i, s := range e.incomplete {
		member, ok := s.Member(e.seed)
		if !ok || member != anchor {
			continue
		}
		stats.ListScans++
		merged, ok := TryMerge(e.u, e.a, e.tau, s, t, stats)
		if ok {
			e.incomplete[i] = merged
			return true
		}
	}
	return false
}

// TryMerge attempts the starred line-14 merge: it returns S ∪ t when
// the union is conflict-free and scores at least τ.
func TryMerge(u *tupleset.Universe, a Join, tau float64, s, t *tupleset.Set, stats *core.Stats) (*tupleset.Set, bool) {
	if conflicts(s, t) {
		return nil, false
	}
	stats.JCCChecks++
	union := u.Union(s, t)
	if a.Score(u, union) >= tau {
		return union, true
	}
	return nil, false
}

// GetNextResult is APPROXGETNEXTRESULT (Fig 6) minus the pop of line 1,
// which the caller performs. T is extended into the result and
// returned; newly discovered candidate subsets land in pool. Database
// scans run on scan, a NewScanner over every relation that the caller
// keeps across calls.
//
// Precondition, as for core.GetNextResult: every seed-relation tuple t
// with A({t}) ≥ τ lies in a set of pool or of complete, and the caller
// adds each returned result, or a superset of it, to complete; the
// join-index discovery walk relies on it (core.Scanner.ForEachDiscovery).
func GetNextResult(u *tupleset.Universe, seed int, a Join, tau float64, scan *core.Scanner,
	T *tupleset.Set, pool core.Pool, complete *core.CompleteStore, stats *core.Stats) *tupleset.Set {
	return getNextResult(u, seed, a, tau, scan, 0, int32(u.DB.Relation(seed).Len()), T, pool, complete, stats)
}

// getNextResult additionally takes the anchor window [lo, hi): a
// discovered candidate whose seed-relation tuple has an index outside
// it is dropped at line 9 exactly as one with no seed tuple is. A
// seed-relation tb outside the window is skipped before its subsets
// are formed, since each of them holds tb and would be dropped there.
// With the full window [0, Len) this is APPROXGETNEXTRESULT verbatim.
func getNextResult(u *tupleset.Universe, seed int, a Join, tau float64, scan *core.Scanner,
	lo, hi int32, T *tupleset.Set, pool core.Pool, complete *core.CompleteStore, stats *core.Stats) *tupleset.Set {

	// Lines 2–6 (starred): extend T maximally under A(T ∪ {tg}) ≥ τ.
	// With the join index each sweep visits the live τ-similar
	// candidates of the current members; a tuple reachable
	// only through a member added mid-sweep becomes a candidate in the
	// next sweep, so the fixpoint is still maximal.
	for changed := true; changed; {
		changed = false
		scan.ForEachExtension(T, func(ref relation.Ref) bool {
			if ext := extension(u, a, tau, T, ref, stats); ext != nil {
				T = ext
				changed = true
			}
			return true
		})
	}

	// Lines 7–18 (starred): candidate discovery over every maximal
	// qualifying subset of T ∪ {tb} containing tb.
	scan.ForEachDiscovery(T, func(tb relation.Ref) bool {
		if T.Has(tb) || int(tb.Rel) == seed && (tb.Idx < lo || tb.Idx >= hi) {
			return true
		}
		for _, tPrime := range a.MaximalSubsets(u, T, tb, tau) {
			stats.JCCChecks++
			anchor, hasSeed := tPrime.Member(seed)
			if !hasSeed || anchor.Idx < lo || anchor.Idx >= hi {
				continue // line 9: T' lacks a tuple of Ri in the window
			}
			if complete.ContainsSuperset(tPrime, anchor, stats) {
				continue // line 11
			}
			if pool.TryAbsorb(tPrime, anchor, stats) {
				continue // lines 14–15 (starred predicate)
			}
			pool.Push(tPrime) // line 18
		}
		return true
	})
	return T
}

func conflicts(a, b *tupleset.Set) bool {
	for _, ref := range b.Refs() {
		if m, ok := a.Member(int(ref.Rel)); ok && m != ref {
			return true
		}
	}
	return false
}

// All drains the enumeration.
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

// FullDisjunction computes AFD(R, A, τ) to completion on the
// sequential pass driver.
func FullDisjunction(db *relation.Database, a Join, tau float64, opts core.Options) ([]*tupleset.Set, core.Stats, error) {
	c, err := NewCursor(context.Background(), db, a, tau, opts)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return c.Drain()
}
