package approx

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Qualify returns the join predicate A(T) ≥ τ of APPROXINCREMENTALFD
// (Figs 5–6): the starred lines of Figs 1–2, on which the core
// enumerators, cursors, Fig 3 queues and deltas run the (A,τ)-
// approximate full disjunction AFD(R, A, τ) unchanged. It rejects a
// nil join and a threshold outside (0, 1].
func Qualify(a Join, tau float64) (core.Predicate, error) {
	if a == nil {
		return nil, fmt.Errorf("approx: nil approximate join function")
	}
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("approx: threshold %v outside (0,1]", tau)
	}
	return qualifier{a, tau}, nil
}

// qualifier is the predicate A(T) ≥ τ. It counts one JCCChecks per
// scored set: per window singleton, per connected candidate of a
// relation T lacks, per subset of line 8 and per conflict-free merge
// attempt.
type qualifier struct {
	a   Join
	tau float64
}

// Lists builds the FIFO Incomplete list of Fig 5 and an always
// hash-indexed Complete store: UseIndex governs the §7 lists of the
// exact engine, not the approximate ones.
func (q qualifier) Lists(u *tupleset.Universe, seed int, _ core.Options) (core.Incomplete, *core.CompleteStore) {
	f := &fifo{u: u, q: q, seed: seed, buckets: make([][]int32, u.DB.Relation(seed).Len())}
	return f, core.NewCompleteStore(u, true)
}

// Admit implements Fig 5, line 3: {t} enters Incomplete when
// A({t}) ≥ τ.
func (q qualifier) Admit(w *core.Walk, s *tupleset.Set) bool {
	w.Stats.JCCChecks++
	return q.a.Score(w.U, s) >= q.tau
}

// Extends implements the starred test of lines 2–6: ref lies on a
// relation T lacks, is connected to T, and A(T ∪ {ref}) ≥ τ. The union
// is scored on a pooled temporary, so T is left unchanged.
func (q qualifier) Extends(w *core.Walk, T *tupleset.Set, ref relation.Ref) bool {
	if T.HasRelation(int(ref.Rel)) || !w.U.ConnectedWith(T, ref) {
		return false
	}
	w.Stats.JCCChecks++
	ext := T.Clone().Add(ref)
	ok := q.a.Score(w.U, ext) >= q.tau
	w.U.ReleaseSet(ext)
	return ok
}

// Subsets implements the starred line 8: every maximal qualifying
// subset of T ∪ {tb} containing tb (Join.MaximalSubsets).
func (q qualifier) Subsets(w *core.Walk, T *tupleset.Set, tb relation.Ref, keep func(*tupleset.Set) bool) {
	for _, tPrime := range q.a.MaximalSubsets(w.U, T, tb, q.tau) {
		w.Stats.JCCChecks++
		keep(tPrime)
	}
}

// Merge implements the starred line-14 merge: S ∪ t when the union is
// conflict-free and scores at least τ.
func (q qualifier) Merge(u *tupleset.Universe, s, t *tupleset.Set, stats *core.Stats) (*tupleset.Set, bool) {
	if conflicts(u, s, t) {
		return nil, false
	}
	stats.JCCChecks++
	union := u.Union(s, t)
	if q.a.Score(u, union) >= q.tau {
		return union, true
	}
	return nil, false
}

// Qualifies reports A(s) ≥ τ.
func (q qualifier) Qualifies(u *tupleset.Universe, s *tupleset.Set) bool {
	return q.a.Score(u, s) >= q.tau
}

// conflicts reports whether a and b hold different tuples of one
// relation. It reads both sets' members relation by relation, so a
// merge attempt allocates nothing.
func conflicts(u *tupleset.Universe, a, b *tupleset.Set) bool {
	for r := 0; r < u.DB.NumRelations(); r++ {
		mb, ok := b.Member(r)
		if !ok {
			continue
		}
		if ma, ok := a.Member(r); ok && ma != mb {
			return true
		}
	}
	return false
}

// fifo is the Incomplete list of Figs 5–6: sets leave from the front in
// push order (line 1) and enter at the back (line 18). Every set also
// sits in the bucket of its anchor, its seed-relation tuple, which
// merges never change, so the starred merge of lines 14–15 visits only
// the sets sharing t's anchor, in push order.
type fifo struct {
	u    *tupleset.Universe
	q    qualifier
	seed int
	// sets holds every pushed set in push order; sets[head:] is the
	// list. buckets[i] holds the list positions of the sets anchored at
	// seed tuple i, in push order.
	sets    []*tupleset.Set
	head    int
	buckets [][]int32
}

func (f *fifo) anchor(s *tupleset.Set) int32 {
	ref, _ := s.Member(f.seed)
	return ref.Idx
}

func (f *fifo) Push(s *tupleset.Set) {
	a := f.anchor(s)
	f.buckets[a] = append(f.buckets[a], int32(len(f.sets)))
	f.sets = append(f.sets, s)
}

// Pop removes the front set. It is the oldest listed set, so it is
// also the front of its anchor's bucket.
func (f *fifo) Pop() (*tupleset.Set, bool) {
	if f.head == len(f.sets) {
		return nil, false
	}
	s := f.sets[f.head]
	f.sets[f.head] = nil
	f.head++
	a := f.anchor(s)
	f.buckets[a] = f.buckets[a][1:]
	return s, true
}

func (f *fifo) TryAbsorb(t *tupleset.Set, anchor relation.Ref, stats *core.Stats) bool {
	for _, i := range f.buckets[anchor.Idx] {
		stats.ListScans++
		if merged, ok := f.q.Merge(f.u, f.sets[i], t, stats); ok {
			f.sets[i] = merged
			return true
		}
	}
	return false
}

func (f *fifo) Len() int { return len(f.sets) - f.head }

func (f *fifo) Snapshot() []*tupleset.Set {
	out := make([]*tupleset.Set, 0, f.Len())
	for _, s := range f.sets[f.head:] {
		out = append(out, s.Clone())
	}
	return out
}
