package relation

import "math"

// The content fingerprint is a 64-bit FNV-1a hash computed from one
// rolling chain per relation: each chain hashes the relation's name and
// schema, then every tuple's label, values (null-marked, length-
// prefixed) and imp/prob bits, in tuple order. The database fingerprint
// combines the relation count, per-relation tuple counts and the chain
// states. Hashing values rather than dictionary codes keeps the
// fingerprint independent of interning order, so a database extended in
// place (Extend) — whose dictionary overlay assigns codes in a
// different order than a from-scratch encode would — still fingerprints
// identically to a rebuilt equal-content database. Keeping the tuple
// counts out of the chains and in the final combine is what makes the
// chains rollable: an append continues one relation's chain over just
// the new tuples.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211

	// fpNullMarker is the length sentinel hashed for a null value; a
	// real datum hashes its length+1, so 0 is never ambiguous with ⊥.
	fpNullMarker uint64 = 0
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	h = fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// fpChainInit starts a relation's fingerprint chain: its name and
// sorted schema attributes.
func fpChainInit(rel *Relation) uint64 {
	h := fnvString(fnvOffset64, rel.Name())
	attrs := rel.Schema().Attributes()
	h = fnvU64(h, uint64(len(attrs)))
	for _, a := range attrs {
		h = fnvString(h, string(a))
	}
	return h
}

// fpChainTuple advances a relation's chain over one tuple. Appending a
// tuple to a frozen database rolls the chain with exactly this step
// (see Database.Extend), so an extended database and a from-scratch
// build of the same content share their chain states.
func fpChainTuple(h uint64, t *Tuple) uint64 {
	h = fnvString(h, t.Label)
	for _, v := range t.Values {
		if v.IsNull() {
			h = fnvU64(h, fpNullMarker)
		} else {
			h = fnvU64(h, uint64(len(v.datum))+1)
			for i := 0; i < len(v.datum); i++ {
				h ^= uint64(v.datum[i])
				h *= fnvPrime64
			}
		}
	}
	h = fnvU64(h, math.Float64bits(t.Imp))
	h = fnvU64(h, math.Float64bits(t.Prob))
	return h
}

// combineFP folds the per-relation chain states and tuple counts into
// the database fingerprint.
func combineFP(rels []*Relation, relFPs []uint64) uint64 {
	h := fnvU64(fnvOffset64, uint64(len(rels)))
	for r, rel := range rels {
		h = fnvU64(h, uint64(rel.Len()))
		h = fnvU64(h, relFPs[r])
	}
	return h
}

// Fingerprint returns a 64-bit content hash of the frozen database:
// relation names, schemas, tuple labels, values and the importance/
// probability columns all contribute. Two databases carry the same
// fingerprint iff they hold the same relations with the same tuples in
// the same order (FNV-1a collisions aside), regardless of how the
// tuples were loaded — the hash reads values, not dictionary codes, so
// snapshot-adopted, from-scratch and incrementally extended encodings
// of equal content agree.
//
// Computing the fingerprint freezes the database, whose content never
// changes again, so the value is computed once and cached.
// internal/service keys its result cache on this value, so repeated
// queries against identically-loaded databases share cached results.
func (db *Database) Fingerprint() uint64 {
	db.ensureEncoded()
	db.fpOnce.Do(func() {
		if db.relFPs == nil {
			relFPs := make([]uint64, len(db.rels))
			for r, rel := range db.rels {
				h := fpChainInit(rel)
				for i := 0; i < rel.Len(); i++ {
					h = fpChainTuple(h, rel.Tuple(i))
				}
				relFPs[r] = h
			}
			db.relFPs = relFPs
		}
		db.fp = combineFP(db.rels, db.relFPs)
	})
	return db.fp
}
