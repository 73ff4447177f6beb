// Package tupleset implements tuple sets — the objects a full
// disjunction is made of — together with the join-consistency and
// connectivity predicates of Section 2 of Cohen & Sagiv 2007 and the
// maximal-subset operation of footnote 3.
//
// A tuple set contains at most one tuple per relation (a set with two
// tuples of one relation can never be connected in the paper's sense),
// so a Set is represented as a fixed-width vector with one optional
// tuple index per relation, mirrored by a relation bitmask. On top of
// that every Set carries an incrementally maintained attribute-binding
// signature (see signature.go): the dictionary code each global
// attribute is bound to by the set's members. The signature turns the
// hot predicates into O(arity) code compares and word-wise bit
// operations; the pairwise walks survive as oracles (Oracle*) for
// property tests and as fallbacks for sets whose signature is stale or
// conflicted.
package tupleset

import (
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/graph"
	"repro/internal/relation"
)

// none marks an absent member.
const none = int32(-1)

// Signature validity states. A valid signature means the members are
// pairwise join consistent and attrBits/binding exactly describe their
// merged attribute bindings. A stale signature must be rebuilt before
// use (cheap, O(|T|·arity)); a conflicted one means the members are
// known not to be pairwise consistent, so only the pairwise fallbacks
// can answer questions about the set.
const (
	sigValid uint8 = iota
	sigStale
	sigConflict
)

// Set is a tuple set: at most one tuple per relation of a fixed
// database. The zero Set is not usable; create Sets through a Universe.
type Set struct {
	u       *Universe
	members []int32 // tuple index per relation, none = absent
	count   int
	// relBits is the relation-membership bitmask, always exact.
	relBits []uint64
	// binding[g] describes what the members bind global attribute g to,
	// meaningful only while sig == sigValid:
	//
	//	0   — no member's schema mentions g
	//	c≥1 — every mentioning member carries dictionary code c
	//	^r  — the single mentioning member (of relation r) holds ⊥
	//
	// Zero is unambiguous because ⊥ mentions are tagged negative and
	// real codes start at 1, so the merge test of UnionJCC is one flat
	// compare per attribute.
	binding []int32
	sig     uint8
}

// Universe ties Sets to a database and its connection graph and hosts
// every predicate that needs schema information.
type Universe struct {
	DB   *relation.Database
	Conn *graph.Connection

	// Lazily built padding layout over the global attribute universe:
	// allAttrs is the sorted union of all schema attributes, attrPos
	// its inverse, and proj[rel][schemaPos] the global position of each
	// relation column. Built once; the universe may be shared across
	// goroutines (the parallel driver does).
	layoutOnce sync.Once
	allAttrs   []relation.Attribute
	attrPos    map[relation.Attribute]int
	proj       [][]int
	relWords   int

	// Lazily cached code columns (cols[rel][pos][idx]), fetched from the
	// database mirror once so the signature maintenance in Add avoids
	// the per-call ensureEncoded check. Building this freezes the
	// database.
	colsOnce sync.Once
	cols     [][][]int32

	// setPool recycles Sets (NewSet draws from it, ReleaseSet returns
	// to it); scratchPool recycles the bitmask scratch of
	// MaximalSubsetWith.
	setPool     sync.Pool
	scratchPool sync.Pool
}

// NewUniverse builds the Universe of db.
func NewUniverse(db *relation.Database) *Universe {
	return &Universe{DB: db, Conn: graph.NewConnection(db)}
}

// ensureLayout builds the padding layout on first use.
func (u *Universe) ensureLayout() {
	u.layoutOnce.Do(func() {
		seen := make(map[relation.Attribute]bool)
		var attrs []relation.Attribute
		for i := 0; i < u.DB.NumRelations(); i++ {
			for _, a := range u.DB.Relation(i).Schema().Attributes() {
				if !seen[a] {
					seen[a] = true
					attrs = append(attrs, a)
				}
			}
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		pos := make(map[relation.Attribute]int, len(attrs))
		for i, a := range attrs {
			pos[a] = i
		}
		proj := make([][]int, u.DB.NumRelations())
		for r := range proj {
			schema := u.DB.Relation(r).Schema()
			proj[r] = make([]int, schema.Len())
			for p, a := range schema.Attributes() {
				proj[r][p] = pos[a]
			}
		}
		u.allAttrs = attrs
		u.attrPos = pos
		u.proj = proj
		u.relWords = (u.DB.NumRelations() + 63) / 64
	})
}

// ensureCols caches the database's code columns (and the attribute
// layout they are indexed by). The first call freezes the database (the
// columnar mirror is built if it does not exist yet).
func (u *Universe) ensureCols() {
	u.ensureLayout()
	u.colsOnce.Do(func() {
		n := u.DB.NumRelations()
		cols := make([][][]int32, n)
		for r := 0; r < n; r++ {
			width := u.DB.Relation(r).Schema().Len()
			cols[r] = make([][]int32, width)
			for p := 0; p < width; p++ {
				cols[r][p] = u.DB.Col(r, p)
			}
		}
		u.cols = cols
	})
}

// NewSet returns an empty tuple set over the universe. It draws from
// the universe's set pool; pass Sets that are provably unreferenced
// back with ReleaseSet to recycle them.
func (u *Universe) NewSet() *Set {
	u.ensureLayout()
	if v := u.setPool.Get(); v != nil {
		s := v.(*Set)
		s.reset()
		return s
	}
	n := u.DB.NumRelations()
	ints := make([]int32, n+len(u.allAttrs))
	s := &Set{
		u:       u,
		members: ints[:n:n],
		binding: ints[n:],
		relBits: make([]uint64, u.relWords),
	}
	for i := range s.members {
		s.members[i] = none
	}
	return s
}

// reset returns s to the empty state with a valid (empty) signature.
func (s *Set) reset() {
	for i := range s.members {
		s.members[i] = none
	}
	s.count = 0
	for w := range s.relBits {
		s.relBits[w] = 0
	}
	for g := range s.binding {
		s.binding[g] = 0
	}
	s.sig = sigValid
}

// ReleaseSet returns a Set to the universe's pool for reuse. The caller
// must guarantee no other reference to s exists; the enumerator uses
// this for the maximal-subset candidates it discards.
func (u *Universe) ReleaseSet(s *Set) {
	if s == nil || s.u != u {
		return
	}
	u.setPool.Put(s)
}

// Singleton returns the tuple set {t} for the referenced tuple.
func (u *Universe) Singleton(ref relation.Ref) *Set {
	s := u.NewSet()
	s.Add(ref)
	return s
}

// FromRefs builds a tuple set containing exactly the given tuples.
// It panics if two refs name tuples of the same relation.
func (u *Universe) FromRefs(refs ...relation.Ref) *Set {
	s := u.NewSet()
	for _, r := range refs {
		if s.members[r.Rel] != none {
			panic("tupleset: two tuples from one relation")
		}
		s.Add(r)
	}
	return s
}

// Len returns the number of tuples in the set.
func (s *Set) Len() int { return s.count }

// ApproxBytes estimates the heap footprint of the set in bytes: the
// struct itself plus its members vector, relation bitmask and binding
// vector. internal/service charges cached result lists against its
// byte budget with it; the estimate ignores allocator rounding but
// scales with the real cost.
func (s *Set) ApproxBytes() int {
	return 96 + 4*len(s.members) + 8*len(s.relBits) + 4*len(s.binding)
}

// Empty reports whether the set has no members.
func (s *Set) Empty() bool { return s.count == 0 }

// Member returns the tuple of relation rel contained in s, if any.
func (s *Set) Member(rel int) (relation.Ref, bool) {
	if idx := s.members[rel]; idx != none {
		return relation.Ref{Rel: int32(rel), Idx: idx}, true
	}
	return relation.Ref{}, false
}

// Has reports whether s contains the referenced tuple.
func (s *Set) Has(ref relation.Ref) bool {
	return s.members[ref.Rel] == ref.Idx
}

// HasRelation reports whether s contains some tuple of relation rel.
func (s *Set) HasRelation(rel int) bool { return s.members[rel] != none }

// Refs returns the members in relation order.
func (s *Set) Refs() []relation.Ref {
	out := make([]relation.Ref, 0, s.count)
	for w, word := range s.relBits {
		for word != 0 {
			r := w*64 + bits.TrailingZeros64(word)
			word &= word - 1
			out = append(out, relation.Ref{Rel: int32(r), Idx: s.members[r]})
		}
	}
	return out
}

// RelationBits returns the inclusion bitmask of relations present in s
// as 64-bit words. The returned slice is the set's live mask and must
// not be modified.
func (s *Set) RelationBits() []uint64 { return s.relBits }

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	out := s.u.NewSet()
	copy(out.members, s.members)
	out.count = s.count
	copy(out.relBits, s.relBits)
	copy(out.binding, s.binding)
	out.sig = s.sig
	return out
}

// Add inserts the referenced tuple into s, replacing any previous tuple
// of the same relation, and maintains the binding signature
// incrementally (O(arity)). It returns s for chaining.
func (s *Set) Add(ref relation.Ref) *Set {
	prev := s.members[ref.Rel]
	if prev == ref.Idx {
		return s
	}
	if prev == none {
		s.count++
		s.relBits[ref.Rel/64] |= 1 << (uint(ref.Rel) % 64)
		if s.sig == sigValid {
			s.bindMember(ref)
		}
	} else {
		// Replacement drops bindings we cannot un-count incrementally.
		s.sig = sigStale
	}
	s.members[ref.Rel] = ref.Idx
	return s
}

// Remove deletes the tuple of relation rel from s, if present.
func (s *Set) Remove(rel int) {
	if s.members[rel] == none {
		return
	}
	s.members[rel] = none
	s.count--
	s.relBits[rel/64] &^= 1 << (uint(rel) % 64)
	if s.count == 0 {
		for g := range s.binding {
			s.binding[g] = 0
		}
		s.sig = sigValid
		return
	}
	s.sig = sigStale
}

// ContainsAll reports whether every member of other is a member of s
// (other ⊆ s). The relation bitmask rejects non-subsets in one word
// operation per 64 relations; candidates that survive compare tuple
// indices with a flat, branch-predictable member walk.
func (s *Set) ContainsAll(other *Set) bool {
	if other.count > s.count {
		return false
	}
	if len(other.relBits) > 1 {
		// With ≤64 relations the flat member walk below is already a
		// handful of compares; the word filter pays for itself only on
		// wide schemas.
		for w, word := range other.relBits {
			if word&^s.relBits[w] != 0 {
				return false
			}
		}
	}
	for r, idx := range other.members {
		if idx != none && s.members[r] != idx {
			return false
		}
	}
	return true
}

// Equal reports whether s and other contain exactly the same tuples.
func (s *Set) Equal(other *Set) bool {
	return s.count == other.count && s.ContainsAll(other)
}

// Key returns a canonical string key for the set, usable as a map key.
// Two sets over the same universe have equal keys iff they are equal.
func (s *Set) Key() string {
	// Compact binary encoding: 4 bytes per relation slot.
	var b strings.Builder
	b.Grow(4 * len(s.members))
	for _, idx := range s.members {
		v := uint32(idx)
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// Format renders the set as {label, label, ...} using tuple labels,
// matching the notation of Tables 2 and 3 in the paper. Members are
// listed in relation order.
func (s *Set) Format(db *relation.Database) string {
	parts := make([]string, 0, s.count)
	for r, idx := range s.members {
		if idx != none {
			parts = append(parts, db.Label(relation.Ref{Rel: int32(r), Idx: idx}))
		}
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// SortSets orders sets deterministically by their Format rendering,
// formatting each set once.
func SortSets(db *relation.Database, sets []*Set) {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = s.Format(db)
	}
	sort.Sort(byFormat{keys, sets})
}

// byFormat sorts sets by their precomputed Format keys.
type byFormat struct {
	keys []string
	sets []*Set
}

func (b byFormat) Len() int           { return len(b.keys) }
func (b byFormat) Less(i, j int) bool { return b.keys[i] < b.keys[j] }
func (b byFormat) Swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.sets[i], b.sets[j] = b.sets[j], b.sets[i]
}
