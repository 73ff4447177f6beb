package rank

import (
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Cursor is a suspended PRIORITYINCREMENTALFD enumeration (Fig 3)
// producing one result per Next call, in non-increasing rank order.
// The same cursor runs the ranked approximate adaptation the paper
// sketches at the end of Section 6: the two differ only in the join
// predicate — JCC or A(T) ≥ τ (core.Predicate) — which selects the
// small seed sets, the queue merge and the GETNEXTRESULT each
// extraction runs. The suspended state is explicit (the per-relation
// priority queues and the Complete store), so a cursor holds no
// goroutine and abandoning one with Close leaks nothing.
//
// A Cursor is not safe for concurrent use.
type Cursor struct {
	ctx      context.Context
	u        *tupleset.Universe
	f        Func
	queues   []*priorityQueue
	complete *core.CompleteStore
	// w is the walk every Fig 3 extraction's GETNEXTRESULT shares.
	w      *core.Walk
	stats  core.Stats
	err    error
	closed bool
}

// NewCursor prepares a ranked enumeration of FD(R) under p: the exact
// full disjunction under core.JCC, AFD(R, A, τ) under approx.Qualify's
// predicate. The Fig 3 initialisation (lines 1–8: enumerate the
// qualifying connected tuple sets of size ≤ c and merge each queue to a
// fixpoint under p) happens here, so the constructor carries the
// polynomial preprocessing cost of Lemma 5.3 and every Next call is one
// queue extraction. For a c-determined f the seeds are the O(|D|^c)
// qualifying sets of at most c tuples (the singletons for fmax), found
// without visiting larger sets; an approximate join's qualifying sets
// are closed under connected subsets because A is acceptable. Database
// scans honour opts on the one scanner of p that every Fig 3
// extraction shares. Cancelling ctx aborts the preprocessing between
// queue merges and makes a later Next fail within one queue extraction
// with Err() == ctx.Err(). A nil ctx means context.Background(). A
// queued set or a result whose rank is NaN or ±Inf fails the open or
// that Next with a *RankError.
func NewCursor(ctx context.Context, db *relation.Database, p core.Predicate, f Func, opts core.Options) (*Cursor, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	if p == nil {
		return nil, fmt.Errorf("rank: nil join predicate")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	u := tupleset.NewUniverse(db)
	// The duplicate-check store is always hash-indexed: UseIndex governs
	// the §7 lists of the exact engine, not this internal structure, and
	// an unindexed store degrades every emission to a linear
	// ContainsSuperset scan.
	c := &Cursor{ctx: ctx, u: u, f: f, complete: core.NewCompleteStore(u, true)}
	c.w = core.NewWalk(u, p, opts, 0, &c.stats)
	if err := c.init(); err != nil {
		return nil, err
	}
	return c, nil
}

// init runs Fig 3 lines 1–8. Lines 1–4 enumerate every connected tuple
// set of size ≤ c that qualifies under the predicate (smallSets:
// O(|D|^c) sets, in key order) and distribute it to the queue of each
// relation it touches; lines 5–8 merge each queue to a fixpoint under
// the predicate's merge, establishing initialisation condition (iii) of
// Lemma 5.2. The queues keep the predicate for the absorb step of
// lines 14–15.
func (c *Cursor) init() error {
	n := c.u.DB.NumRelations()
	p := c.w.P
	perSeed := make([][]*tupleset.Set, n)
	for _, s := range smallSets(c.u, c.f.C(), func(s *tupleset.Set) bool { return p.Qualifies(c.u, s) }) {
		// Each queue may extend its copy in place; the last queue
		// takes the original, which nothing else holds.
		refs := s.Refs()
		for i, ref := range refs {
			t := s
			if i < len(refs)-1 {
				t = s.Clone()
			}
			perSeed[ref.Rel] = append(perSeed[ref.Rel], t)
		}
	}
	c.queues = make([]*priorityQueue, n)
	for i := 0; i < n; i++ {
		if err := c.ctx.Err(); err != nil {
			return err
		}
		q := &priorityQueue{u: c.u, seed: i, f: c.f, p: p}
		for _, s := range mergeFixpoint(c.u, p, perSeed[i], &c.stats) {
			q.Push(s)
		}
		for _, it := range q.h {
			if err := finiteRank(c.u, it.set, it.rank); err != nil {
				return err
			}
		}
		c.queues[i] = q
	}
	return nil
}

// RankError reports a tuple set whose rank is NaN or ±Inf — a rank
// function can overflow on finite importances (PairSum of two near the
// float64 maximum) — which neither a rank order nor a JSON page can
// carry.
type RankError struct {
	// Set is the tuple set, formatted as in the paper's tables.
	Set  string
	Rank float64
}

func (e *RankError) Error() string {
	return fmt.Sprintf("rank: %s has rank %v, not a finite number", e.Set, e.Rank)
}

// finiteRank returns a *RankError when r, the rank of s, is not finite.
func finiteRank(u *tupleset.Universe, s *tupleset.Set, r float64) error {
	if math.IsNaN(r) || math.IsInf(r, 0) {
		return &RankError{Set: s.Format(u.DB), Rank: r}
	}
	return nil
}

// smallSets returns every connected tuple set of at most c tuples that
// satisfies qualifies, sorted by Key: the seeds of Fig 3 lines 1–4. It
// grows the qualifying singletons breadth-first, one connected tuple at
// a time, and never extends a set that already has c members, so it
// keeps O(|D|^c) sets and makes O(|D|^c) extension attempts in all.
// Completeness needs qualifies to be downward closed on connected
// subsets, as JCC and A(T) ≥ τ for an acceptable A are: every
// qualifying connected set is then reached through a chain of
// qualifying connected subsets, one tuple apart.
func smallSets(u *tupleset.Universe, c int, qualifies func(*tupleset.Set) bool) []*tupleset.Set {
	type keyed struct {
		key string
		set *tupleset.Set
	}
	var all, frontier []keyed
	// admit keeps s if it qualifies and is new, and recycles it
	// otherwise. The predicate runs first: most extensions fail it, and
	// a failed one then costs neither a key nor a map entry.
	seen := make(map[string]struct{})
	admit := func(s *tupleset.Set, into *[]keyed) {
		if qualifies(s) {
			key := s.Key()
			if _, dup := seen[key]; !dup {
				seen[key] = struct{}{}
				*into = append(*into, keyed{key, s})
				return
			}
		}
		u.ReleaseSet(s)
	}
	u.DB.ForEachRef(func(ref relation.Ref) bool {
		admit(u.Singleton(ref), &frontier)
		return true
	})
	for size := 1; len(frontier) > 0; size++ {
		all = append(all, frontier...)
		if size == c {
			break
		}
		var next []keyed
		for _, k := range frontier {
			u.DB.ForEachRef(func(ref relation.Ref) bool {
				if !k.set.HasRelation(int(ref.Rel)) && u.ConnectedWith(k.set, ref) {
					admit(k.set.Clone().Add(ref), &next)
				}
				return true
			})
		}
		frontier = next
	}
	slices.SortFunc(all, func(a, b keyed) int { return strings.Compare(a.key, b.key) })
	out := make([]*tupleset.Set, len(all))
	for i, k := range all {
		out[i] = k.set
	}
	return out
}

// Next produces the next result in rank order, or ok=false when the
// enumeration is exhausted, closed, cancelled, or failed (check Err).
// It performs one iteration of Fig 3 lines 9–18: extract from the
// queue whose top ranks highest, extend it to a result, and emit it
// unless it was already printed via another queue.
func (c *Cursor) Next() (core.Result, bool) {
	if c.closed || c.err != nil {
		return core.Result{}, false
	}
	for {
		// One check per queue extraction: a cancelled enumeration stops
		// within one step of Fig 3's while loop.
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return core.Result{}, false
		}
		best := -1
		var bestRank float64
		var bestKey string
		for i, q := range c.queues {
			top, r, ok := q.Top()
			if !ok {
				continue
			}
			if best < 0 || r > bestRank || (r == bestRank && top.Key() < bestKey) {
				best, bestRank, bestKey = i, r, top.Key()
			}
		}
		if best < 0 {
			return core.Result{}, false // all queues empty: enumeration exhausted
		}
		T, _ := c.queues[best].PopSet()
		result := core.GetNextResult(c.w, best, T, c.queues[best], c.complete)
		c.stats.Iterations++
		anchor, ok := result.Member(best)
		if !ok {
			c.err = fmt.Errorf("rank: internal error: result lacks seed tuple")
			return core.Result{}, false
		}
		if c.complete.ContainsSuperset(result, anchor, &c.stats) {
			continue // line 17: already printed via another queue
		}
		r := c.f.Rank(c.u, result)
		if err := finiteRank(c.u, result, r); err != nil {
			c.err = err
			return core.Result{}, false
		}
		c.complete.Add(result)
		c.stats.Emitted++
		return core.Result{Set: result, Rank: r, Ranked: true}, true
	}
}

// Stats returns the counters accumulated so far.
func (c *Cursor) Stats() core.Stats { return c.stats }

// Err returns the error that terminated the enumeration, if any.
func (c *Cursor) Err() error { return c.err }

// Close abandons the enumeration; idempotent, leaks nothing.
func (c *Cursor) Close() { c.closed = true }

// mergeFixpoint repeatedly replaces pairs p merges by their union
// until no pair can merge (Fig 3, lines 5–8). Containment pairs merge
// too (the union is the larger set), so the result is containment-free.
func mergeFixpoint(u *tupleset.Universe, p core.Predicate, sets []*tupleset.Set, stats *core.Stats) []*tupleset.Set {
	out := append([]*tupleset.Set(nil), sets...)
	for {
		merged := false
	scan:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if union, ok := p.Merge(u, out[i], out[j], stats); ok {
					out[i] = union
					out = append(out[:j], out[j+1:]...)
					merged = true
					break scan
				}
			}
		}
		if !merged {
			return out
		}
	}
}
