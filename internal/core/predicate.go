package core

import (
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Predicate is the join predicate GETNEXTRESULT is parameterised by:
// JCC(T) for the exact full disjunction (Figs 1–3), or A(T) ≥ τ for an
// approximate join (APPROXINCREMENTALFD, Figs 5–6, whose starred lines
// change nothing else; approx.Qualify builds it). It answers the
// starred tests only — the per-tuple extension test, the subsets of
// line 8, the merge and the seed tests — each called at most once per
// tuple or set. Package core owns every loop around them: the lines
// 2–6 extension fixpoint and the lines 7–18 discovery walk of
// getNextResult, the prefix walk of a pass enumerator and the suffix
// extension of the projected strategy, so the enumerators, cursors,
// Fig 3 queues and deltas run on one body for both joins.
//
// A Predicate value is immutable and shared by every task of an
// enumeration; per-enumeration state lives in the Walk its steps get.
type Predicate interface {
	// Scanner builds the scanner of one enumeration over the relations
	// minRel..n-1 of u's database, with the scan knobs of opts,
	// counting into stats: the equi-join candidates for JCC, the
	// candidate source of the approximate join otherwise.
	Scanner(u *tupleset.Universe, opts Options, minRel int, stats *Stats) *Scanner
	// Lists builds the Incomplete pool and the Complete store of one
	// enumeration with seed relation seed.
	Lists(u *tupleset.Universe, seed int, opts Options) (Incomplete, *CompleteStore)
	// Admit reports whether the window singleton s of the seed relation
	// enters Incomplete (Fig 1 line 3; Fig 5 admits {t} with
	// A({t}) ≥ τ only).
	Admit(w *Walk, s *tupleset.Set) bool
	// Extends is the test of line 3 for one tuple: it reports whether
	// T ∪ {ref} qualifies, for a connected T that does not hold ref,
	// and leaves T unchanged. The extension fixpoint and the prefix
	// walk call it once per visited tuple.
	Extends(w *Walk, T *tupleset.Set, ref relation.Ref) bool
	// Subsets runs line 8 for one tuple tb: it calls keep with every
	// maximal qualifying subset T' of T ∪ {tb} that contains tb (one for
	// JCC, footnote 3). keep reports whether it retained T'; a T' keep
	// rejected may be recycled by the predicate.
	Subsets(w *Walk, T *tupleset.Set, tb relation.Ref, keep func(*tupleset.Set) bool)
	// Merge returns S ∪ T when the union qualifies: the merge of lines
	// 14–15 and of Fig 3 lines 5–8.
	Merge(u *tupleset.Universe, s, t *tupleset.Set, stats *Stats) (*tupleset.Set, bool)
	// Qualifies reports whether s satisfies the predicate: the seed
	// test of Fig 3 lines 1–4.
	Qualifies(u *tupleset.Universe, s *tupleset.Set) bool
}

// Incomplete is the Incomplete list of an enumeration: a Pool that
// also yields the next set to extend (Fig 2, line 1).
type Incomplete interface {
	Pool
	// Pop removes and returns the next set; ok is false when empty.
	Pop() (*tupleset.Set, bool)
	// Len returns the number of sets awaiting extension.
	Len() int
	// Snapshot returns copies of the sets in pop order.
	Snapshot() []*tupleset.Set
}

// Walk is the working state of one enumeration: the universe, the
// scanner, the counters, a signature counter block that GETNEXTRESULT
// flushes into Stats after every iteration, and the exact predicate's
// recycled T′ buffer. The loops of package core — the extension
// fixpoint, the discovery walk and a pass's prefix walk — run on it
// and hand it to every Predicate test they call. A Walk belongs to one
// goroutine.
type Walk struct {
	U     *tupleset.Universe
	P     Predicate
	Scan  *Scanner
	Stats *Stats
	sig   tupleset.SigCounters
	spare *tupleset.Set
}

// NewWalk prepares the walk of one enumeration under p over the
// relations minRel..n-1 of u's database, counting into stats.
func NewWalk(u *tupleset.Universe, p Predicate, opts Options, minRel int, stats *Stats) *Walk {
	return &Walk{U: u, P: p, Scan: p.Scanner(u, opts, minRel, stats), Stats: stats}
}

// flush folds the signature counters into Stats.
func (w *Walk) flush() {
	w.Stats.AddSig(&w.sig)
	w.sig.Hits, w.sig.Rebuilds = 0, 0
}

// JCC is the exact predicate of Figs 1–3: join consistent and
// connected. Its lists are the §7 IncompleteQueue and CompleteStore,
// hash-indexed under Options.UseIndex.
var JCC Predicate = jcc{}

type jcc struct{}

func (jcc) Scanner(u *tupleset.Universe, opts Options, minRel int, stats *Stats) *Scanner {
	return NewScanner(u.DB, opts, minRel, stats, Candidates{})
}

func (jcc) Lists(u *tupleset.Universe, seed int, opts Options) (Incomplete, *CompleteStore) {
	return NewIncompleteQueue(u, seed, opts.UseIndex), NewCompleteStore(u, opts.UseIndex)
}

func (jcc) Admit(*Walk, *tupleset.Set) bool { return true }

// Extends counts one JCC check per visited tuple.
func (jcc) Extends(w *Walk, T *tupleset.Set, ref relation.Ref) bool {
	w.Stats.JCCChecks++
	return w.U.JCCWithTuple(T, ref, &w.sig)
}

// Subsets forms the maximal JCC subset T' of T ∪ {tb} containing tb
// (footnote 3) in one buffer recycled across the discovery scan — the
// containment and absorb probes do not retain it — and replaced only
// when keep retains a candidate.
func (jcc) Subsets(w *Walk, T *tupleset.Set, tb relation.Ref, keep func(*tupleset.Set) bool) {
	if w.spare == nil {
		w.spare = w.U.NewSet()
	}
	w.U.MaximalSubsetInto(w.spare, T, tb, &w.sig)
	w.Stats.JCCChecks++
	if keep(w.spare) {
		w.spare = nil
	}
}

func (jcc) Merge(u *tupleset.Universe, s, t *tupleset.Set, stats *Stats) (*tupleset.Set, bool) {
	stats.JCCChecks++
	var sig tupleset.SigCounters
	defer stats.AddSig(&sig)
	if u.UnionJCC(s, t, &sig) {
		return u.Union(s, t), true
	}
	return nil, false
}

func (jcc) Qualifies(u *tupleset.Universe, s *tupleset.Set) bool { return u.JCC(s) }
