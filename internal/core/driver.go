package core

import (
	"context"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// FullDisjunction computes FD(R) = ⋃i FDi(R) under p without
// duplicates, using the initialisation strategy selected in opts: it
// drains a Cursor.
func FullDisjunction(db *relation.Database, p Predicate, opts Options) ([]*tupleset.Set, Stats, error) {
	c, err := NewCursor(context.Background(), db, p, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	return c.Drain()
}

// seedInit builds the initial Incomplete contents for pass i of the
// seeded strategies.
func seedInit(u *tupleset.Universe, i int, opts Options, printed *CompleteStore, stats *Stats) []*tupleset.Set {
	covered := make(map[int32]bool)
	var init []*tupleset.Set
	for _, s := range printed.Sets() {
		ref, ok := s.Member(i)
		if !ok {
			continue
		}
		covered[ref.Idx] = true
		switch opts.Strategy {
		case InitSeeded:
			// Option 2: seed with the previous result itself.
			init = append(init, s.Clone())
		case InitProjected:
			// Option 3: project the previous result onto relations
			// Ri..Rn, keep the connected component of its Ri tuple, and
			// extend it with suffix tuples to a suffix-maximal set.
			proj := projectSuffix(u, s, i)
			extendSuffix(u, proj, i, opts, stats)
			init = append(init, proj)
		}
	}
	if opts.Strategy == InitProjected {
		init = dedupContained(init)
	}
	rel := u.DB.Relation(i)
	for t := 0; t < rel.Len(); t++ {
		if !covered[int32(t)] {
			init = append(init, u.Singleton(relation.Ref{Rel: int32(i), Idx: int32(t)}))
		}
	}
	return init
}

// projectSuffix restricts s to relations i..n-1 and keeps the connected
// component containing s's tuple of relation i.
func projectSuffix(u *tupleset.Universe, s *tupleset.Set, i int) *tupleset.Set {
	words := u.Conn.Words()
	mask := make([]uint64, 2*words)
	comp := mask[words:]
	mask = mask[:words:words]
	for _, ref := range s.Refs() {
		if int(ref.Rel) >= i {
			mask[ref.Rel/64] |= 1 << (uint(ref.Rel) % 64)
		}
	}
	u.Conn.ComponentOfBitsInto(comp, mask, i)
	out := u.NewSet()
	for _, ref := range s.Refs() {
		if comp[ref.Rel/64]&(1<<(uint(ref.Rel)%64)) != 0 {
			out.Add(ref)
		}
	}
	return out
}

// extendSuffix maximally extends s with tuples of relations i..n-1
// (the loop of GETNEXTRESULT lines 2–6 restricted to the suffix).
func extendSuffix(u *tupleset.Universe, s *tupleset.Set, i int, opts Options, stats *Stats) {
	w := NewWalk(u, JCC, opts, i, stats)
	extend(w, s)
	w.flush()
}

// dedupContained removes sets contained in another set of the slice
// (including duplicates), preserving order of the survivors.
func dedupContained(sets []*tupleset.Set) []*tupleset.Set {
	var out []*tupleset.Set
	for i, s := range sets {
		contained := false
		for j, t := range sets {
			if i == j {
				continue
			}
			if t.ContainsAll(s) && (s.Len() < t.Len() || j < i) {
				// Tie-break equal sets by position so exactly one copy
				// survives.
				contained = true
				break
			}
		}
		if !contained {
			out = append(out, s)
		}
	}
	return out
}
