package tupleset

import (
	"math/bits"

	"repro/internal/relation"
)

// ConsistentWith reports whether the referenced tuple is pairwise join
// consistent with every member of s. A tuple of a relation already
// represented in s is consistent only if it is that very member (a set
// may not hold two tuples of one relation).
//
// With a valid binding signature the answer costs O(arity): ref's codes
// are compared against the set-wide attribute bindings. Stale
// signatures are rebuilt lazily; conflicted sets (not pairwise
// consistent, so no signature can describe them) fall back to the
// pairwise oracle, which is always exact. ctr, when non-nil, counts
// signature hits and rebuilds.
func (u *Universe) ConsistentWith(s *Set, ref relation.Ref, ctr *SigCounters) bool {
	if idx := s.members[ref.Rel]; idx != none {
		return idx == ref.Idx
	}
	// Common case first, without the function-call detour of sigReady:
	// sets on the enumeration hot path are built by Add and stay valid.
	if s.sig == sigValid || u.sigReady(s, ctr) {
		ctr.hit()
		return u.bindingConsistent(s, ref)
	}
	return u.OracleConsistentWith(s, ref)
}

// OracleConsistentWith is the pairwise reference implementation of
// ConsistentWith: one JoinConsistent walk per member. It is retained as
// the property-test oracle and as the fallback for sets whose members
// are not pairwise consistent.
func (u *Universe) OracleConsistentWith(s *Set, ref relation.Ref) bool {
	if idx := s.members[ref.Rel]; idx != none {
		return idx == ref.Idx
	}
	for r, idx := range s.members {
		if idx == none {
			continue
		}
		if !u.DB.JoinConsistent(relation.Ref{Rel: int32(r), Idx: idx}, ref) {
			return false
		}
	}
	return true
}

// ConnectedWith reports whether s ∪ {ref} induces a connected set of
// relations, assuming s itself is connected (the invariant every
// algorithm in the paper maintains). An empty s is extended by any
// tuple; otherwise ref's relation must already be present or adjacent
// to a present relation — a word-wise test against the relation
// bitmask.
func (u *Universe) ConnectedWith(s *Set, ref relation.Ref) bool {
	if s.count == 0 {
		return true
	}
	if s.members[ref.Rel] != none {
		return true
	}
	return u.Conn.TouchesBits(int(ref.Rel), s.relBits)
}

// JCCWithTuple reports whether s ∪ {ref} is join consistent and
// connected, assuming s is connected. This is the predicate of line 3
// of GETNEXTRESULT (Fig 2). ctr, when non-nil, counts signature hits
// and rebuilds.
func (u *Universe) JCCWithTuple(s *Set, ref relation.Ref, ctr *SigCounters) bool {
	return u.ConnectedWith(s, ref) && u.ConsistentWith(s, ref, ctr)
}

// Connected performs the full connectivity check of Section 2: the
// relations present in s induce a connected subgraph of the connection
// graph. Unlike ConnectedWith it makes no assumption about s.
func (u *Universe) Connected(s *Set) bool {
	if s.count == 0 {
		return false
	}
	sc, pooled := u.scratch(nil)
	ok := u.Conn.SubsetConnectedBits(s.relBits, sc.comp)
	if pooled {
		u.releaseScratch(sc)
	}
	return ok
}

// JCC performs the full join-consistent-and-connected check of
// Section 2 with no assumptions and no reliance on the signature: every
// pair of members is join consistent and the members' relations are
// connected. Intended for oracles, property tests and validation; the
// algorithms use the incremental variants above.
func (u *Universe) JCC(s *Set) bool {
	if s.count == 0 {
		return false
	}
	refs := s.Refs()
	for i := 0; i < len(refs); i++ {
		for j := i + 1; j < len(refs); j++ {
			if !u.DB.JoinConsistent(refs[i], refs[j]) {
				return false
			}
		}
	}
	return u.Connected(s)
}

// UnionJCC reports whether a ∪ b is join consistent and connected,
// assuming a and b are each JCC. Following the paper's analysis
// (proof of Theorem 4.8), under that assumption the union is JCC iff
//
//   - no two members disagree (pairwise join consistency across the two
//     sets, including the no-two-tuples-per-relation rule), and
//   - the two sets overlap in a relation or contain a connected pair of
//     relations (so the union of two connected subgraphs is connected).
//
// With valid signatures on both sides this is a single merge of the two
// binding vectors plus a bitmask adjacency test. ctr, when non-nil,
// counts signature hits and rebuilds.
func (u *Universe) UnionJCC(a, b *Set, ctr *SigCounters) bool {
	if (a.sig == sigValid || u.sigReady(a, ctr)) &&
		(b.sig == sigValid || u.sigReady(b, ctr)) {
		ctr.hit()
		return u.UnionJCCValid(a, b)
	}
	return u.OracleUnionJCC(a, b)
}

// UnionJCCValid evaluates UnionJCC over two valid signatures. Both
// signatures MUST be valid (EnsureSig); hot callers hoist that check
// out of their candidate loops and call this directly.
func (u *Universe) UnionJCCValid(a, b *Set) bool {
	// Merge the binding vectors with one flat sweep — the most frequent
	// rejector, so it runs first: an attribute mentioned on both sides
	// (both values non-zero) must carry the same value — the same
	// non-null code, or the same ⊥ tag (meaning the single member
	// mentioning it with ⊥ is shared; the member walk below proves the
	// shared member identical).
	bBind := b.binding[:len(a.binding)]
	for g, ba := range a.binding {
		if bb := bBind[g]; ba != 0 && bb != 0 && ba != bb {
			return false
		}
	}
	// Shared relations must hold the identical tuple — two distinct
	// tuples of one relation can never coexist, and equal bindings do
	// not imply equal tuples (duplicate rows share all values). Any
	// shared relation also makes the union connected.
	touching := false
	for w, word := range b.relBits {
		common := a.relBits[w] & word
		for common != 0 {
			r := w*64 + bits.TrailingZeros64(common)
			common &= common - 1
			if a.members[r] != b.members[r] {
				return false
			}
			touching = true
		}
	}
	if touching {
		return true
	}
	// No shared relation: some relation of b must be adjacent to one
	// of a.
	for w, word := range b.relBits {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if u.Conn.TouchesBits(r, a.relBits) {
				return true
			}
		}
	}
	return false
}

// OracleUnionJCC is the pairwise reference implementation of UnionJCC,
// retained as the property-test oracle and the fallback for stale or
// conflicted signatures.
func (u *Universe) OracleUnionJCC(a, b *Set) bool {
	touching := false
	for r, idxB := range b.members {
		if idxB == none {
			continue
		}
		idxA := a.members[r]
		if idxA != none {
			if idxA != idxB {
				return false // two distinct tuples of one relation
			}
			touching = true
			continue
		}
		refB := relation.Ref{Rel: int32(r), Idx: idxB}
		for ra, idxA := range a.members {
			if idxA == none {
				continue
			}
			refA := relation.Ref{Rel: int32(ra), Idx: idxA}
			if !u.DB.JoinConsistent(refA, refB) {
				return false
			}
			if !touching && u.DB.ConnectedRelations(ra, r) {
				touching = true
			}
		}
	}
	return touching
}

// Union returns a ∪ b as a fresh set. It panics if a and b hold
// distinct tuples of the same relation; check UnionJCC first.
func (u *Universe) Union(a, b *Set) *Set {
	out := a.Clone()
	u.UnionInto(out, b)
	return out
}

// UnionInto adds every member of b to dst in place — the
// allocation-free form of Union for callers that own dst exclusively
// (the Incomplete queue's absorb merge). It panics if dst and b hold
// distinct tuples of the same relation; check UnionJCC first.
func (u *Universe) UnionInto(dst, b *Set) {
	for w, word := range b.relBits {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			idx := b.members[r]
			if have := dst.members[r]; have != none {
				if have != idx {
					panic("tupleset: union of sets with conflicting members")
				}
				continue
			}
			dst.Add(relation.Ref{Rel: int32(r), Idx: idx})
		}
	}
}

// MaximalSubsetWith implements footnote 3 of the paper: the unique
// maximal subset T' of s ∪ {tb} that contains tb and is join consistent
// and connected. It is computed exactly as the footnote prescribes:
//
//  1. remove every member t' of s such that {t', tb} is not join
//     consistent (in particular any member from tb's relation), then
//  2. keep the tuples whose relations lie in the connected component of
//     tb's relation.
//
// The returned set is drawn from the universe's pool; callers that
// discard it may hand it back with ReleaseSet. When s has a valid
// signature and tb is consistent with the whole set (an O(arity)
// binding probe), step 1 removes nothing and the answer is a single
// bitset component walk. ctr, when non-nil, counts signature hits and
// rebuilds.
func (u *Universe) MaximalSubsetWith(s *Set, tb relation.Ref, ctr *SigCounters) *Set {
	out := u.NewSet()
	u.MaximalSubsetInto(out, s, tb, ctr)
	return out
}

// MaximalSubsetInto computes MaximalSubsetWith into dst, overwriting
// its previous contents. The enumerator core reuses one dst across the
// whole discovery scan — most candidates are rejected by cheap
// membership probes, so recycling the buffer removes an allocation per
// database tuple — and only allocates when a candidate is actually
// kept.
func (u *Universe) MaximalSubsetInto(dst *Set, s *Set, tb relation.Ref, ctr *SigCounters) {
	sc, pooled := u.scratch(ctr)
	if pooled {
		defer u.releaseScratch(sc)
	}
	if s.sig == sigValid || u.sigReady(s, ctr) {
		if mem := s.members[tb.Rel]; mem == tb.Idx ||
			(mem == none && u.bindingConsistent(s, tb)) {
			// No member is dropped by step 1: the component of tb's
			// relation over s's relations plus tb's is the answer.
			ctr.hit()
			copy(sc.mask, s.relBits)
			sc.mask[tb.Rel/64] |= 1 << (uint(tb.Rel) % 64)
			u.componentInto(dst, s, tb, sc)
			return
		}
	}
	// Step 1: pairwise join consistency with tb.
	for w := range sc.mask {
		sc.mask[w] = 0
	}
	for r, idx := range s.members {
		if idx == none || int32(r) == tb.Rel {
			// A same-relation member is always removed (unless it is tb
			// itself, which the bit below restores).
			continue
		}
		if u.DB.JoinConsistent(relation.Ref{Rel: int32(r), Idx: idx}, tb) {
			sc.mask[r/64] |= 1 << (uint(r) % 64)
		}
	}
	sc.mask[tb.Rel/64] |= 1 << (uint(tb.Rel) % 64)
	u.componentInto(dst, s, tb, sc)
}

// componentInto fills dst with the tuple set of the connected component
// of tb's relation within sc.mask, taking member indices from s (and tb
// for its own relation). dst's signature is left stale on purpose: most
// discovery candidates are discarded by cheap membership checks before
// any signature-consuming predicate runs, so bindings are built lazily
// on first use instead of eagerly per candidate.
func (u *Universe) componentInto(dst *Set, s *Set, tb relation.Ref, sc *sigScratch) {
	// Step 2: connected component of tb's relation.
	u.Conn.ComponentOfBitsInto(sc.comp, sc.mask, int(tb.Rel))
	// Clear only dst's previous members (cheaper than a full reset when
	// dst is the enumerator's recycled buffer).
	for w, word := range dst.relBits {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			dst.members[r] = none
		}
	}
	dst.count = 0
	for w, word := range sc.comp {
		dst.relBits[w] = word
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			if int32(r) == tb.Rel {
				dst.members[r] = tb.Idx
			} else {
				dst.members[r] = s.members[r]
			}
			dst.count++
		}
	}
	dst.sig = sigStale // bindings not built; rebuilt on first use
}

// OracleMaximalSubsetWith is the reference implementation of
// MaximalSubsetWith over boolean masks, retained as the property-test
// oracle. It allocates freely and never consults the signature.
func (u *Universe) OracleMaximalSubsetWith(s *Set, tb relation.Ref) *Set {
	mask := make([]bool, len(s.members))
	for r, idx := range s.members {
		if idx == none {
			continue
		}
		if int32(r) == tb.Rel {
			continue
		}
		if u.DB.JoinConsistent(relation.Ref{Rel: int32(r), Idx: idx}, tb) {
			mask[r] = true
		}
	}
	mask[tb.Rel] = true
	comp := u.Conn.ComponentOf(int(tb.Rel), mask)
	out := u.NewSet()
	for r := range comp {
		if !comp[r] {
			continue
		}
		if int32(r) == tb.Rel {
			out.Add(tb)
		} else {
			out.Add(relation.Ref{Rel: int32(r), Idx: s.members[r]})
		}
	}
	return out
}
