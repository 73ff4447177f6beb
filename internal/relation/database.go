package relation

import (
	"fmt"
	"sync"
)

// Ref identifies a tuple globally within a Database: relation index Rel
// and tuple index Idx within that relation.
type Ref struct {
	Rel int32
	Idx int32
}

// String renders the reference using the tuple's label when available.
func (ref Ref) String() string { return fmt.Sprintf("(%d,%d)", ref.Rel, ref.Idx) }

// PosPair names a pair of value positions: P1 in the schema of the
// first relation and P2 in the schema of the second, both referring to
// the same shared attribute.
type PosPair struct {
	P1, P2 int
}

// Database is an immutable collection of relations R1..Rn together with
// the precomputed structures the algorithms need:
//
//   - the connection graph over relations (two relations are connected
//     iff their schemas share an attribute, Section 2), and
//   - for each connected pair, the list of shared attribute positions,
//     which makes pairwise join-consistency a linear walk.
//
// Build a Database with NewDatabase. Tuple values and metadata may
// still be adjusted between NewDatabase and the database's first query
// (the tourist workloads misspell a country that way) through
// Relation.MutateTuple; the first query — or an explicit Freeze call —
// freezes the database by encoding it into the columnar dictionary
// mirror. From that point on MutateTuple panics and appends return an
// error, so a late mutation fails loudly instead of being silently
// invisible to the algorithms; Extend derives a new frozen database
// with appended tuples instead. Relations themselves (schemas, tuple
// counts) must not change once added.
type Database struct {
	rels []*Relation
	// shared[i][j] lists the shared attribute positions between
	// relations i and j; empty iff i and j are not connected (or i==j).
	shared [][][]PosPair
	// adj[i] lists the relations connected to relation i.
	adj [][]int
	// size is the total database size s (sum of relation sizes).
	size int
	// tuples is the total number of tuples across all relations.
	tuples int

	// The columnar value layer: a database-wide dictionary interning
	// every distinct non-null datum, the relations' values mirrored
	// column-major as code slices, flat importance/probability columns,
	// and the equi-join posting index over the code columns.
	//
	// The mirror is built lazily on first query (encodeOnce) rather
	// than in NewDatabase: callers are allowed to adjust tuple values
	// and metadata between NewDatabase and the first query (the tourist
	// workloads misspell a country that way); after the first query the
	// relations must not be mutated at all.
	encodeOnce sync.Once
	dict       *Dict
	// cols[rel][pos][idx] is the dictionary code of tuple idx of
	// relation rel at schema position pos.
	cols  [][][]int32
	imps  [][]float64
	probs [][]float64
	index *JoinIndex

	// fpOnce/fp cache the content fingerprint of the frozen database
	// (see Fingerprint). relFPs holds the per-relation fingerprint
	// chain states the combined fp is derived from — Extend rolls one
	// chain forward over an appended batch instead of rehashing the
	// database.
	fpOnce sync.Once
	fp     uint64
	relFPs []uint64
}

// NewDatabase builds a database over the given relations. Relation
// names must be unique. The paper additionally assumes the relation set
// is connected for the full disjunction to be a single problem; that is
// the caller's concern (see graph.Connected) — NewDatabase itself only
// precomputes structure.
func NewDatabase(rels ...*Relation) (*Database, error) {
	if len(rels) == 0 {
		return nil, fmt.Errorf("relation: database must contain at least one relation")
	}
	names := make(map[string]bool, len(rels))
	for _, r := range rels {
		if r == nil {
			return nil, fmt.Errorf("relation: nil relation in database")
		}
		if names[r.Name()] {
			return nil, fmt.Errorf("relation: duplicate relation name %q", r.Name())
		}
		names[r.Name()] = true
	}
	n := len(rels)
	db := &Database{
		rels:   rels,
		shared: make([][][]PosPair, n),
		adj:    make([][]int, n),
	}
	for i := 0; i < n; i++ {
		db.shared[i] = make([][]PosPair, n)
		db.size += rels[i].Size()
		db.tuples += rels[i].Len()
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			common := rels[i].Schema().Shared(rels[j].Schema())
			if len(common) == 0 {
				continue
			}
			pairs := make([]PosPair, 0, len(common))
			for _, a := range common {
				p1, _ := rels[i].Schema().Position(a)
				p2, _ := rels[j].Schema().Position(a)
				pairs = append(pairs, PosPair{P1: p1, P2: p2})
			}
			db.shared[i][j] = pairs
			rev := make([]PosPair, len(pairs))
			for k, p := range pairs {
				rev[k] = PosPair{P1: p.P2, P2: p.P1}
			}
			db.shared[j][i] = rev
			db.adj[i] = append(db.adj[i], j)
			db.adj[j] = append(db.adj[j], i)
		}
	}
	return db, nil
}

// MustDatabase is like NewDatabase but panics on error.
func MustDatabase(rels ...*Relation) *Database {
	db, err := NewDatabase(rels...)
	if err != nil {
		panic(err)
	}
	return db
}

// NumRelations returns n, the number of relations.
func (db *Database) NumRelations() int { return len(db.rels) }

// Relation returns the i-th relation.
func (db *Database) Relation(i int) *Relation { return db.rels[i] }

// Relations returns the underlying relation slice; callers must not
// modify it.
func (db *Database) Relations() []*Relation { return db.rels }

// RelationIndex returns the index of the relation with the given name.
func (db *Database) RelationIndex(name string) (int, bool) {
	for i, r := range db.rels {
		if r.Name() == name {
			return i, true
		}
	}
	return 0, false
}

// Size returns the total database size s used in the paper's complexity
// bounds (tuple count plus cell count over all relations).
func (db *Database) Size() int { return db.size }

// NumTuples returns the total number of tuples across all relations.
func (db *Database) NumTuples() int { return db.tuples }

// Tuple resolves a Ref to the tuple it names.
func (db *Database) Tuple(ref Ref) *Tuple {
	return db.rels[ref.Rel].Tuple(int(ref.Idx))
}

// Label returns a human-readable name for the referenced tuple: its
// label if set, otherwise Relation[index].
func (db *Database) Label(ref Ref) string {
	t := db.Tuple(ref)
	if t.Label != "" {
		return t.Label
	}
	return fmt.Sprintf("%s[%d]", db.rels[ref.Rel].Name(), ref.Idx)
}

// SharedPositions returns the shared attribute position pairs between
// relations i and j (empty when the relations are not connected).
func (db *Database) SharedPositions(i, j int) []PosPair { return db.shared[i][j] }

// ConnectedRelations reports whether relations i and j share an
// attribute.
func (db *Database) ConnectedRelations(i, j int) bool {
	return i != j && len(db.shared[i][j]) > 0
}

// Adjacent returns the indices of relations connected to relation i.
// The returned slice must not be modified.
func (db *Database) Adjacent(i int) []int { return db.adj[i] }

// Freeze makes the database immutable and builds the columnar mirror
// now. It is implied by the first query; calling it explicitly is
// useful to pin the freeze point in programs that interleave loading
// and querying. Freeze is idempotent and safe for concurrent use.
func (db *Database) Freeze() { db.ensureEncoded() }

// Frozen reports whether the database has been frozen (first query or
// explicit Freeze). Tuple mutation panics and appends fail once this
// returns true.
func (db *Database) Frozen() bool {
	return len(db.rels) > 0 && db.rels[0].Frozen()
}

// ensureEncoded builds the columnar value layer on first use: the
// dictionary, the per-relation code columns, the flat imp/prob columns
// and the equi-join posting index. It freezes every relation first, so
// a mutation racing the first query trips the freeze check instead of
// tearing the mirror. It is safe for concurrent use (the parallel
// driver shares one Database across goroutines).
func (db *Database) ensureEncoded() {
	db.encodeOnce.Do(func() {
		for _, rel := range db.rels {
			rel.freeze()
		}
		dict := newDictBuilder()
		n := len(db.rels)
		cols := make([][][]int32, n)
		imps := make([][]float64, n)
		probs := make([][]float64, n)
		for r, rel := range db.rels {
			width := rel.Schema().Len()
			m := rel.Len()
			relCols := make([][]int32, width)
			flat := make([]int32, width*m) // one backing array per relation
			for p := range relCols {
				relCols[p] = flat[p*m : (p+1)*m : (p+1)*m]
			}
			imp := make([]float64, m)
			prob := make([]float64, m)
			for i := 0; i < m; i++ {
				t := rel.Tuple(i)
				for p, v := range t.Values {
					relCols[p][i] = dict.intern(v)
				}
				imp[i] = t.Imp
				prob[i] = t.Prob
			}
			cols[r] = relCols
			imps[r] = imp
			probs[r] = prob
		}
		db.dict = dict
		db.cols = cols
		db.imps = imps
		db.probs = probs
		db.index = buildJoinIndex(cols)
	})
}

// Dict returns the database's value dictionary, encoding the database
// first if needed.
func (db *Database) Dict() *Dict {
	db.ensureEncoded()
	return db.dict
}

// Index returns the equi-join candidate index, encoding the database
// first if needed.
func (db *Database) Index() *JoinIndex {
	db.ensureEncoded()
	return db.index
}

// Col returns the code column of relation rel at schema position pos:
// one code per tuple, NullCode for ⊥. The slice must not be modified.
func (db *Database) Col(rel, pos int) []int32 {
	db.ensureEncoded()
	return db.cols[rel][pos]
}

// Code returns the dictionary code of the referenced tuple's value at
// schema position pos.
func (db *Database) Code(ref Ref, pos int) int32 {
	db.ensureEncoded()
	return db.cols[ref.Rel][pos][ref.Idx]
}

// Imp returns the importance imp(t) of the referenced tuple from the
// flat columnar mirror (Section 5 ranking functions read this in their
// hot loops).
func (db *Database) Imp(ref Ref) float64 {
	db.ensureEncoded()
	return db.imps[ref.Rel][ref.Idx]
}

// Prob returns the probability prob(t) of the referenced tuple from the
// flat columnar mirror (Section 6 approximate joins read this in their
// hot loops).
func (db *Database) Prob(ref Ref) float64 {
	db.ensureEncoded()
	return db.probs[ref.Rel][ref.Idx]
}

// JoinConsistent reports whether the two referenced tuples are join
// consistent: for every attribute shared by their schemas the values
// are equal and non-null. Tuples of the same relation are never join
// consistent (they share their whole schema, and a tuple set may not
// contain two tuples of one relation); a tuple is vacuously consistent
// with itself.
//
// The predicate is evaluated over the columnar code mirror: per shared
// attribute it is two int32 loads and an integer compare, with no Tuple
// materialisation and no string comparison.
func (db *Database) JoinConsistent(a, b Ref) bool {
	if a.Rel == b.Rel {
		return a.Idx == b.Idx
	}
	db.ensureEncoded()
	ca := db.cols[a.Rel]
	cb := db.cols[b.Rel]
	for _, p := range db.shared[a.Rel][b.Rel] {
		va := ca[p.P1][a.Idx]
		if va == NullCode || va != cb[p.P2][b.Idx] {
			return false
		}
	}
	return true
}

// ForEachRef calls fn for every tuple in the database in deterministic
// order (relation order, then tuple order). It is the "foreach tuple in
// the database" loop of GETNEXTRESULT.
func (db *Database) ForEachRef(fn func(Ref) bool) {
	for r := range db.rels {
		for i := 0; i < db.rels[r].Len(); i++ {
			if !fn(Ref{Rel: int32(r), Idx: int32(i)}) {
				return
			}
		}
	}
}
