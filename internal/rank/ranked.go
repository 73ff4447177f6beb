package rank

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Result pairs a tuple set of the full disjunction with its rank.
type Result struct {
	Set  *tupleset.Set
	Rank float64
}

// Cursor is a suspended PRIORITYINCREMENTALFD enumeration (Fig 3)
// producing one result per Next call, in non-increasing rank order.
// The same cursor runs the ranked approximate adaptation the paper
// sketches at the end of Section 6: the two differ only in the join
// predicate — JCC or A(T) ≥ τ — which selects the small seed sets, the
// queue merge and the GETNEXTRESULT each extraction runs. The
// suspended state is explicit (the per-relation priority queues and
// the Complete store), so a cursor holds no goroutine and abandoning
// one with Close leaks nothing.
//
// A Cursor is not safe for concurrent use.
type Cursor struct {
	ctx      context.Context
	u        *tupleset.Universe
	f        Func
	queues   []*priorityQueue
	complete *core.CompleteStore
	// step is GETNEXTRESULT for a set T popped from queue seed.
	step   func(seed int, T *tupleset.Set) *tupleset.Set
	stats  core.Stats
	err    error
	closed bool
}

// NewCursor prepares a ranked enumeration of FD(R). The Fig 3
// initialisation (lines 1–8: enumerate the JCC connected tuple sets of
// size ≤ c and merge each queue to a fixpoint) happens here, so the
// constructor carries the polynomial preprocessing cost of Lemma 5.3
// and every Next call is one queue extraction. For a c-determined f
// the seeds are the O(|D|^c) qualifying sets of at most c tuples (the
// singletons for fmax), found without visiting larger sets. Database
// scans honour opts on one core.NewScanner that every Fig 3 extraction
// shares. Cancelling ctx aborts the preprocessing between queue merges
// and makes a later Next fail within one queue extraction with
// Err() == ctx.Err(). A nil ctx means context.Background().
func NewCursor(ctx context.Context, db *relation.Database, f Func, opts core.Options) (*Cursor, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	c := newCursor(ctx, db, f)
	scan := core.NewScanner(db, opts, 0, &c.stats)
	c.step = func(seed int, T *tupleset.Set) *tupleset.Set {
		return core.GetNextResult(c.u, seed, scan, T, c.queues[seed], c.complete, &c.stats)
	}
	if err := c.init(func(s *tupleset.Set) bool { return c.u.JCC(s) }, jccMerge(c.u)); err != nil {
		return nil, err
	}
	return c, nil
}

// NewApproxCursor prepares a ranked enumeration of AFD(R, A, τ). The
// initialisation enumerates the connected tuple sets of size ≤ c with
// A(S) ≥ τ (valid because A is acceptable, so qualifying sets are
// closed under connected subsets) and merges queue pairs under the
// A-threshold predicate. Database scans honour opts (block size,
// buffer pool, join index) on one approx.NewScanner that every Fig 3
// extraction shares.
func NewApproxCursor(ctx context.Context, db *relation.Database, a approx.Join, tau float64,
	f Func, opts core.Options) (*Cursor, error) {
	if err := Validate(f); err != nil {
		return nil, err
	}
	if a == nil {
		return nil, fmt.Errorf("rank: nil approximate join function")
	}
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("rank: threshold %v outside (0,1]", tau)
	}
	c := newCursor(ctx, db, f)
	scan := approx.NewScanner(c.u, a, tau, opts, 0, &c.stats)
	c.step = func(seed int, T *tupleset.Set) *tupleset.Set {
		return approx.GetNextResult(c.u, seed, a, tau, scan, T, c.queues[seed], c.complete, &c.stats)
	}
	merge := func(existing, incoming *tupleset.Set, st *core.Stats) (*tupleset.Set, bool) {
		return approx.TryMerge(c.u, a, tau, existing, incoming, st)
	}
	if err := c.init(func(s *tupleset.Set) bool { return a.Score(c.u, s) >= tau }, merge); err != nil {
		return nil, err
	}
	return c, nil
}

func newCursor(ctx context.Context, db *relation.Database, f Func) *Cursor {
	if ctx == nil {
		ctx = context.Background()
	}
	u := tupleset.NewUniverse(db)
	// The duplicate-check store is always hash-indexed: UseIndex governs
	// the §7 lists of the exact engine, not this internal structure, and
	// an unindexed store degrades every emission to a linear
	// ContainsSuperset scan.
	return &Cursor{ctx: ctx, u: u, f: f, complete: core.NewCompleteStore(u, true)}
}

// init runs Fig 3 lines 1–8. Lines 1–4 enumerate every connected tuple
// set of size ≤ c satisfying the join predicate qualifies (smallSets:
// O(|D|^c) sets, in key order) and distribute it to the queue of each
// relation it touches; lines 5–8 merge each queue to a fixpoint under
// merge, establishing initialisation condition (iii) of Lemma 5.2. The queues keep merge
// for the absorb step of lines 14–15.
func (c *Cursor) init(qualifies func(*tupleset.Set) bool, merge mergeFunc) error {
	n := c.u.DB.NumRelations()
	perSeed := make([][]*tupleset.Set, n)
	for _, s := range smallSets(c.u, c.f.C(), qualifies) {
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
		q := &priorityQueue{u: c.u, seed: i, f: c.f, merge: merge}
		for _, s := range mergeFixpoint(perSeed[i], merge, &c.stats) {
			q.Push(s)
		}
		c.queues[i] = q
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
func (c *Cursor) Next() (Result, bool) {
	if c.closed || c.err != nil {
		return Result{}, false
	}
	for {
		// One check per queue extraction: a cancelled enumeration stops
		// within one step of Fig 3's while loop.
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return Result{}, false
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
			return Result{}, false // all queues empty: enumeration exhausted
		}
		T, _ := c.queues[best].PopSet()
		result := c.step(best, T)
		c.stats.Iterations++
		anchor, ok := result.Member(best)
		if !ok {
			c.err = fmt.Errorf("rank: internal error: result lacks seed tuple")
			return Result{}, false
		}
		if c.complete.ContainsSuperset(result, anchor, &c.stats) {
			continue // line 17: already printed via another queue
		}
		c.complete.Add(result)
		c.stats.Emitted++
		return Result{Set: result, Rank: c.f.Rank(c.u, result)}, true
	}
}

// Stats returns the counters accumulated so far.
func (c *Cursor) Stats() core.Stats { return c.stats }

// Err returns the error that terminated the enumeration, if any.
func (c *Cursor) Err() error { return c.err }

// Close abandons the enumeration; idempotent, leaks nothing.
func (c *Cursor) Close() { c.closed = true }

// mergeFixpoint repeatedly replaces mergeable pairs by their union
// until no pair can merge (Fig 3, lines 5–8). Containment pairs merge
// too (the union is the larger set), so the result is containment-free.
func mergeFixpoint(sets []*tupleset.Set, merge mergeFunc, stats *core.Stats) []*tupleset.Set {
	out := append([]*tupleset.Set(nil), sets...)
	for {
		merged := false
	scan:
		for i := 0; i < len(out); i++ {
			for j := i + 1; j < len(out); j++ {
				if union, ok := merge(out[i], out[j], stats); ok {
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
