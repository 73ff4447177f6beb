package core

import (
	"slices"

	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tupleset"
)

// InitStrategy selects how the Incomplete list of pass i of the
// full-disjunction driver is initialised (Section 7, "Minimizing
// repeated work"). All strategies produce the same full disjunction;
// they differ in how much work the later passes repeat.
type InitStrategy int

const (
	// InitSingletons is the restart initialisation of Fig 1: pass i
	// seeds Incomplete with {t} for every t ∈ Ri. It scans only
	// relations Ri..Rn and drops each result a tuple of an earlier
	// relation extends (that result's superset was printed by an
	// earlier pass), so every result it keeps has minimal relation i
	// and the passes are independent (NewPassEnumerator).
	InitSingletons InitStrategy = iota
	// InitSeeded is the second §7 option: pass i seeds Incomplete with
	// the previously printed tuple sets that contain a tuple of Ri,
	// plus {t} for every t ∈ Ri not covered by a previous result; scans
	// are restricted to tuples of Ri..Rn and results subsumed by a
	// previously printed set are suppressed.
	InitSeeded
	// InitProjected is the third §7 option: previously printed sets are
	// projected onto relations Ri..Rn (keeping the connected component
	// of their Ri tuple), extended, and deduplicated before seeding;
	// otherwise as InitSeeded.
	InitProjected
)

// String names the strategy.
func (s InitStrategy) String() string {
	switch s {
	case InitSingletons:
		return "singletons"
	case InitSeeded:
		return "seeded"
	case InitProjected:
		return "projected"
	default:
		return "unknown"
	}
}

// Options configures the algorithms.
type Options struct {
	// UseIndex enables the §7 hash index: Complete and Incomplete are
	// bucketed by their tuple from the seed relation, so the searches
	// of GETNEXTRESULT lines 11 and 14 touch only candidate sets that
	// could possibly match.
	UseIndex bool
	// UseJoinIndex enables candidate-only database scans backed by the
	// dictionary-code posting index: instead of sweeping every tuple,
	// GETNEXTRESULT visits only the tuples that equi-match a member of
	// the current set on a shared attribute, in the extension and the
	// discovery phase alike (Scanner.ForEachDiscovery argues why no
	// other tuple can yield a new candidate subset). Under an
	// approximate join it visits the τ-live tuples whose code on that
	// attribute is τ-similar to the member's (Predicate.Scanner); a
	// similarity with no such bound keeps the sweep. The produced full
	// disjunction is identical as a set; the enumeration order of
	// individual results may differ from the sweep. Stats records the
	// probes and the tuples the sweep would have visited.
	UseJoinIndex bool
	// BlockSize is the number of tuples fetched per simulated page read
	// during database scans (block-based execution, §7). Zero or one
	// means tuple-at-a-time execution.
	BlockSize int
	// Pool, when non-nil, routes page fetches through a simulated LRU
	// buffer pool: only misses count as PageReads, and the pool's
	// hit/miss counters expose the caching behaviour a real database
	// buffer would show under the algorithm's scan pattern.
	Pool *storage.BufferPool
	// Strategy selects the Incomplete initialisation of the
	// full-disjunction driver.
	Strategy InitStrategy
	// TaskObserver, when non-nil, receives a TaskSpan each time a
	// parallel enumeration task finishes (label, wall-clock extent,
	// and the task's folded counters). Called from the helper
	// goroutines and from the goroutine calling Next or Close.
	// Unlike Pool it is compatible with parallel execution — it exists
	// to observe it — and is ignored on the sequential path.
	TaskObserver TaskObserver
}

// Serving returns the one engine configuration fd.Open, append
// maintenance and the service run: both indexes on, every other option
// at its default.
func Serving() Options { return Options{UseIndex: true, UseJoinIndex: true} }

func (o Options) blockSize() int {
	if o.BlockSize < 1 {
		return 1
	}
	return o.BlockSize
}

// Scanner walks database tuples in deterministic order while counting
// tuples and simulated page reads. Its scope is the relations
// [minRel, maxRel): a pass scans the suffix [i, n) and its prefix walk
// (Prefix) the relations [0, i) before it. With a buffer pool
// attached, only buffer misses count as page reads.
//
// With useJoinIndex set, the extension and discovery walks visit only
// the candidates their Candidates source yields; otherwise they fall
// back to the full sweep. Scanner is exported so sibling enumeration
// packages (internal/approx) share the same scan accounting and
// candidate generation instead of re-encoding it.
type Scanner struct {
	db           *relation.Database
	block        int
	minRel       int
	maxRel       int
	stats        *Stats
	pool         *storage.BufferPool
	useJoinIndex bool
	cands        Candidates
	// cand[r] is reusable scratch for candidate tuple indices of
	// relation r gathered from posting lookups.
	cand [][]int32
}

// Candidates is the candidate source of a Scanner's join-index walks.
// Its zero value is the exact one: a member probes the equi-join
// posting index with its own code, and every tuple is live.
//
// An approximate join, whose qualifying predicate A(S) ≥ τ admits
// pairs that never equi-match, widens the walks through its source
// (approx derives it from the Join and its Sim). The walks stay
// exhaustive for every approximate join whose source keeps three
// facts, which ForEachDiscovery's argument then uses in place of join
// consistency:
//
//   - Live drops only tuples t with A({t}) < τ. Monotonicity of an
//     acceptable join (approx.Join, property ii) gives A(S) ≤ A({t})
//     for every connected S ∋ t, so no qualifying set holds a dead
//     tuple and no extension, T' or prefix extension can contain one.
//   - Every connected pair {m, tb} inside a qualifying set has
//     sim(m, tb) ≥ τ. Amin takes the minimum over its factors, and
//     Aprod multiplies factors that are each ≤ 1, so under either a
//     single pair's similarity bounds the score from above.
//   - sim(m, tb) ≥ τ puts tb in Postings of m's code on their first
//     shared position. LevenshteinSim is the minimum of the code
//     similarities over the shared positions, so the codes on the
//     first one are τ-neighbours, and the source returns the postings
//     of every τ-neighbour code; ExactSim is 1 only on join-consistent
//     pairs, whose first shared codes are equal.
//
// A qualifying extension T ∪ {tb} or a T' ≠ {tb} is connected, so tb
// has a member neighbour in it, a connected pair of a qualifying set,
// and is therefore a live posting candidate of that member. T' = {tb}
// is the singleton case (ii) of ForEachDiscovery, unchanged.
type Candidates struct {
	// Postings, when non-nil, replaces the equi-join index: it returns
	// the ascending tuple indices of column (rel, pos) a member whose
	// code on the paired column is code may join.
	Postings PostingSource
	// Live, when non-nil, marks per relation the tuples that may lie
	// in a qualifying set; the walks drop every other tuple before
	// counting or scoring it.
	Live [][]bool
}

// PostingSource maps a probe — a column and the code of the probing
// member on the paired column — to the tuples of that column it may
// match. *relation.JoinIndex is the exact source.
type PostingSource interface {
	Postings(rel, pos int, code int32) []int32
}

// NewScanner builds a scanner over db driven by the scan knobs of opts
// (block size, buffer pool, join index), restricted to relations
// minRel..n-1, accounting into stats. Its join-index walks
// (ForEachExtension, ForEachDiscovery) visit the candidates c yields:
// the equi-match candidates of JCC for the zero Candidates.
func NewScanner(db *relation.Database, opts Options, minRel int, stats *Stats, c Candidates) *Scanner {
	return &Scanner{db: db, block: opts.blockSize(), minRel: minRel, maxRel: db.NumRelations(),
		stats: stats, pool: opts.Pool, useJoinIndex: opts.UseJoinIndex, cands: c}
}

// Prefix returns a scanner over the relations [0, minRel) that sc's
// scope leaves out, with sc's knobs and counters: the walk a pass
// enumerator uses to test whether a tuple of an earlier relation
// extends one of its results.
func (sc *Scanner) Prefix() *Scanner {
	return &Scanner{db: sc.db, block: sc.block, maxRel: sc.minRel, stats: sc.stats,
		pool: sc.pool, useJoinIndex: sc.useJoinIndex, cands: sc.cands}
}

// ForEach visits every tuple in scope; fn returning false stops early.
func (sc *Scanner) ForEach(fn func(relation.Ref) bool) {
	for r := sc.minRel; r < sc.maxRel; r++ {
		n := sc.db.Relation(r).Len()
		for i := 0; i < n; i++ {
			sc.page(r, int(i))
			sc.stats.TuplesScanned++
			if !fn(relation.Ref{Rel: int32(r), Idx: int32(i)}) {
				return
			}
		}
	}
}

// page accounts one tuple access at (rel, idx) against the simulated
// block/page model: the first access of each block of a (monotone
// ascending) walk counts a read, or a pool fetch when a buffer pool is
// attached.
func (sc *Scanner) page(rel, idx int) {
	if idx%sc.block == 0 {
		sc.pageBlock(rel, idx/sc.block)
	}
}

func (sc *Scanner) pageBlock(rel, blk int) {
	if sc.pool != nil {
		if !sc.pool.Fetch(storage.PageID{Rel: int32(rel), Block: int32(blk)}) {
			sc.stats.PageReads++
		}
	} else {
		sc.stats.PageReads++
	}
}

// scopeTuples returns the number of tuples a full sweep would visit.
func (sc *Scanner) scopeTuples() int64 {
	var n int64
	for r := sc.minRel; r < sc.maxRel; r++ {
		n += int64(sc.db.Relation(r).Len())
	}
	return n
}

// ForEachExtension drives the maximal-extension walk of GETNEXTRESULT
// lines 2–6: it visits every tuple tg that could satisfy JCC(T∪{tg}).
// A valid extension must be connected to T and join consistent with
// every member, so it must equi-match (non-null code equality) some
// member of T on the first shared attribute position of an adjacent
// relation pair — exactly what the posting index returns. Under an
// approximate join the same holds with its Candidates source.
func (sc *Scanner) ForEachExtension(T *tupleset.Set, fn func(relation.Ref) bool) {
	if !sc.useJoinIndex {
		sc.ForEach(fn)
		return
	}
	sc.forEachCandidate(T, false, fn)
}

// ForEachDiscovery drives the candidate-subset walk of GETNEXTRESULT
// lines 7–18: it visits the posting candidates of T's members on every
// adjacent relation in scope, the seed relation included, and skips
// every other tuple tb. The skip is exact, because a skipped tb yields
// no candidate the sweep could keep:
//
//   - tb not of the seed relation: T' (footnote 3) reaches a seed
//     tuple only through a member on a relation adjacent to tb's that
//     is join consistent with tb, which forces a non-null code match on
//     their first shared position, so tb is a posting candidate.
//   - (i) tb of the seed relation with T' ≠ {tb}: T' is connected, so
//     it holds a member on a relation adjacent to tb's that is join
//     consistent with tb; the same match makes tb a posting candidate.
//   - (ii) tb of the seed relation with T' = {tb}: line 11 or line 14
//     always discards it, because every tuple of the window stays in a
//     live Incomplete set or in a Complete set. Window and pass
//     enumerators seed every window singleton; seeded enumerators cover
//     the seed relation by NewSeededEnumerator's contract; Fig 3 queues
//     (c ≥ 1) seed every qualifying singleton; and under an approximate
//     join a {tb} that does not qualify has no qualifying superset, so
//     it is never a T'. A popped set's result, a superset, enters
//     Complete.
//
// A skipped {tb} never pushed or merged anything (a merge of {tb} into
// a set that holds tb leaves it unchanged), so results and emission
// order match a walk that visits it; only the work counters differ.
// Under an approximate join, "join consistent" reads "a connected pair
// of a qualifying set" and "posting candidate" a live candidate of the
// scanner's source; Candidates argues both.
func (sc *Scanner) ForEachDiscovery(T *tupleset.Set, fn func(relation.Ref) bool) {
	if !sc.useJoinIndex {
		sc.ForEach(fn)
		return
	}
	sc.forEachCandidate(T, true, fn)
}

// forEachCandidate gathers the live candidates of the members of T from
// the posting source and visits them in deterministic (relation,
// tuple) order, mirroring the sweep's order restricted to candidates.
// includeInT selects whether relations already represented in T yield
// candidates (discovery needs replacement tuples, extension cannot use
// them).
func (sc *Scanner) forEachCandidate(T *tupleset.Set, includeInT bool, fn func(relation.Ref) bool) {
	db := sc.db
	n := db.NumRelations()
	var src PostingSource = db.Index()
	if sc.cands.Postings != nil {
		src = sc.cands.Postings
	}
	live := sc.cands.Live
	if sc.cand == nil {
		sc.cand = make([][]int32, n)
	}
	for r := range sc.cand {
		sc.cand[r] = sc.cand[r][:0]
	}
	for _, m := range T.Refs() {
		for _, r2 := range db.Adjacent(int(m.Rel)) {
			if r2 < sc.minRel || r2 >= sc.maxRel {
				continue // out of scan scope
			}
			if !includeInT && T.HasRelation(r2) {
				continue // an extension into a represented relation never passes JCC
			}
			p := db.SharedPositions(int(m.Rel), r2)[0]
			code := db.Code(m, p.P1)
			if code == relation.NullCode {
				continue // ⊥ joins with nothing
			}
			sc.stats.IndexProbes++
			postings := src.Postings(r2, p.P2, code)
			if live == nil {
				sc.cand[r2] = append(sc.cand[r2], postings...)
				continue
			}
			for _, i := range postings {
				if live[r2][i] {
					sc.cand[r2] = append(sc.cand[r2], i)
				}
			}
		}
	}
	visited := int64(0)
	defer func() {
		sc.stats.TuplesSkipped += sc.scopeTuples() - visited
	}()
	for r := sc.minRel; r < sc.maxRel; r++ {
		idxs := sortDedup(sc.cand[r])
		sc.cand[r] = idxs
		lastBlock := -1
		for _, i := range idxs {
			if blk := int(i) / sc.block; blk != lastBlock {
				lastBlock = blk
				sc.pageBlock(r, blk)
			}
			sc.stats.TuplesScanned++
			visited++
			if !fn(relation.Ref{Rel: int32(r), Idx: i}) {
				return
			}
		}
	}
}

// sortDedup sorts idxs ascending and removes duplicates in place
// (posting lists from different members can name the same tuple).
func sortDedup(idxs []int32) []int32 {
	if len(idxs) < 2 {
		return idxs
	}
	slices.Sort(idxs)
	out := idxs[:1]
	for _, v := range idxs[1:] {
		if v != out[len(out)-1] {
			out = append(out, v)
		}
	}
	return out
}
