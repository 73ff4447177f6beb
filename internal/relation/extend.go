package relation

import "fmt"

// Extend returns a new frozen Database equal to db with tuples appended
// to relation relIdx, built incrementally: O(batch) fresh encoding work
// plus O(relations + |R_relIdx|) pointer/header copies, instead of the
// O(database) rebuild-and-reencode a from-scratch construction costs.
//
// The derived database shares memory with db wherever content is
// unchanged — the connection graph, every other relation and its code
// columns, the dictionary's base maps, and every other relation's
// join-index posting maps — and db itself is never written: readers of
// db (live cursors, cached tuple sets) remain valid concurrently with
// and after the call. Per-relation state of relIdx is copy-on-write:
//
//   - the relation is a fresh frozen Relation whose tuple slice is the
//     old tuples (header-copied) plus the batch;
//   - the code columns are reallocated from one new flat array, the old
//     prefix copied, the batch interned through a dictionary overlay
//     (Dict.derive) that assigns codes above the shared base so every
//     existing code — and every tuple-set binding holding one — keeps
//     its meaning;
//   - the join index is derived with only relIdx's posting maps copied
//     (JoinIndex.extend);
//   - the content fingerprint is rolled: relIdx's fingerprint chain is
//     continued over the batch (fpChainTuple) and recombined, so the
//     result equals the fingerprint a from-scratch build of the same
//     content would compute.
//
// Extend freezes db first (it reads the mirror and the chain states).
// Every tuple must pass Relation.CheckTuple. The batch must be
// non-empty — an empty extension would mint a second Database with
// db's fingerprint for no reason.
func (db *Database) Extend(relIdx int, tuples []Tuple) (*Database, error) {
	if relIdx < 0 || relIdx >= len(db.rels) {
		return nil, fmt.Errorf("relation: extend: relation index %d out of range [0,%d)", relIdx, len(db.rels))
	}
	base := db.rels[relIdx]
	if len(tuples) == 0 {
		return nil, fmt.Errorf("relation: extend %s: empty tuple batch", base.name)
	}
	for i := range tuples {
		if err := base.CheckTuple(&tuples[i]); err != nil {
			return nil, fmt.Errorf("relation: extend %s: tuple %d: %w", base.name, i, err)
		}
	}
	width := base.schema.Len()
	db.Fingerprint() // freeze, encode, and materialise the chain states

	firstNew := base.Len()
	m := firstNew + len(tuples)

	nt := make([]Tuple, m)
	copy(nt, base.tuples)
	copy(nt[firstNew:], tuples)
	rel := &Relation{name: base.name, schema: base.schema, tuples: nt, frozen: true}

	rels := make([]*Relation, len(db.rels))
	copy(rels, db.rels)
	rels[relIdx] = rel

	dict := db.dict.derive()
	flat := make([]int32, width*m)
	relCols := make([][]int32, width)
	for p := range relCols {
		relCols[p] = flat[p*m : (p+1)*m : (p+1)*m]
		copy(relCols[p], db.cols[relIdx][p])
	}
	imp := make([]float64, m)
	prob := make([]float64, m)
	copy(imp, db.imps[relIdx])
	copy(prob, db.probs[relIdx])
	for i := firstNew; i < m; i++ {
		t := &nt[i]
		for p, v := range t.Values {
			relCols[p][i] = dict.intern(v)
		}
		imp[i] = t.Imp
		prob[i] = t.Prob
	}

	cols := make([][][]int32, len(db.cols))
	copy(cols, db.cols)
	cols[relIdx] = relCols
	imps := make([][]float64, len(db.imps))
	copy(imps, db.imps)
	imps[relIdx] = imp
	probs := make([][]float64, len(db.probs))
	copy(probs, db.probs)
	probs[relIdx] = prob

	relFPs := make([]uint64, len(db.relFPs))
	copy(relFPs, db.relFPs)
	h := relFPs[relIdx]
	for i := firstNew; i < m; i++ {
		h = fpChainTuple(h, &nt[i])
	}
	relFPs[relIdx] = h

	nd := &Database{
		rels:   rels,
		shared: db.shared,
		adj:    db.adj,
		size:   db.size + len(tuples)*(1+width),
		tuples: db.tuples + len(tuples),
		dict:   dict,
		cols:   cols,
		imps:   imps,
		probs:  probs,
		index:  db.index.extend(relIdx, relCols, firstNew),
		relFPs: relFPs,
		fp:     combineFP(rels, relFPs),
	}
	// The encoding and fingerprint above are preset; burn the Onces so
	// the lazy paths never recompute (and never re-freeze) them.
	nd.encodeOnce.Do(func() {})
	nd.fpOnce.Do(func() {})
	return nd, nil
}
