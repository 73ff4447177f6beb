package relation

// The on-disk columnar snapshot format. A snapshot serialises a frozen
// Database column-first — exactly the layout of the in-memory mirror —
// so loading rebuilds the dictionary, code columns, imp/prob vectors,
// join index and fingerprint without re-interning a single string. The
// layout (see docs/SNAPSHOT_FORMAT.md for the normative description):
//
//	header   magic "FDSN" | version u16 | fingerprint u64 | crc32
//	section  id u16 | length u64 | payload | crc32(payload)
//
// Sections appear in a fixed order: meta (relation count), dict (the
// interned datums in code order), one relation section per relation
// (name, sorted schema, labels, column-major code columns, imp and prob
// vectors), and a zero-length end marker. Every section is individually
// length-prefixed and CRC32-checksummed; after parsing, the recomputed
// Fingerprint must equal the stored one, so a corrupt file that slips
// past the checksums still fails loudly instead of serving wrong
// answers.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// Snapshot format constants. The version is bumped on any incompatible
// layout change; readers refuse versions they do not know.
const (
	snapMagic   = "FDSN"
	snapVersion = 1

	secMeta     uint16 = 0
	secDict     uint16 = 1
	secRelation uint16 = 2
	secEnd      uint16 = 3

	// maxSectionLen caps a section's declared payload length.
	maxSectionLen = 1 << 30
)

// WriteSnapshot serialises the database in the versioned binary
// snapshot format. It freezes the database (the snapshot is the
// columnar mirror plus the metadata needed to rebuild the relations)
// and embeds the content fingerprint, which ReadSnapshot re-verifies.
func (db *Database) WriteSnapshot(w io.Writer) error {
	// A bufio.Writer keeps its first error and returns it from Flush,
	// so the writes below need no checks of their own.
	bw := bufio.NewWriter(w)
	bw.Write(appendHeader(nil, snapMagic, snapVersion, db.Fingerprint())) // freezes and encodes

	var p payloadWriter
	emit := func(id uint16) {
		var frame [10]byte
		binary.LittleEndian.PutUint16(frame[0:2], id)
		binary.LittleEndian.PutUint64(frame[2:10], uint64(len(p.b)))
		bw.Write(frame[:])
		bw.Write(p.b)
		bw.Write(binary.LittleEndian.AppendUint32(frame[:0], crc32.ChecksumIEEE(p.b)))
		p.b = p.b[:0]
	}

	p.u32(uint32(len(db.rels)))
	emit(secMeta)

	p.u32(uint32(db.dict.Len()))
	for c := int32(1); c <= int32(db.dict.Len()); c++ {
		p.str(db.dict.Datum(c))
	}
	emit(secDict)

	for r, rel := range db.rels {
		p.str(rel.Name())
		attrs := rel.Schema().Attributes()
		p.u32(uint32(len(attrs)))
		for _, a := range attrs {
			p.str(string(a))
		}
		m := rel.Len()
		p.u32(uint32(m))
		for i := 0; i < m; i++ {
			p.str(rel.Tuple(i).Label)
		}
		for _, col := range db.cols[r] {
			for _, c := range col {
				p.i32(c)
			}
		}
		for _, v := range db.imps[r] {
			p.f64(v)
		}
		for _, v := range db.probs[r] {
			p.f64(v)
		}
		emit(secRelation)
	}

	emit(secEnd)
	return bw.Flush()
}

// ReadSnapshot loads a database from the snapshot format. The
// dictionary, code columns, imp/prob vectors and join index are adopted
// directly from the file — no value is re-interned — and the relations'
// tuples are materialised by decoding the columns, so the loaded
// database behaves exactly like the one that was written (rendering,
// CSV export and Extend all work). The database comes back frozen; the
// recomputed Fingerprint must equal the stored one or the load fails.
func ReadSnapshot(r io.Reader) (*Database, error) {
	db, fp, err := decodeSnapshot(r)
	if err != nil {
		return nil, err
	}
	if got := db.Fingerprint(); got != fp {
		return nil, fmt.Errorf("relation: snapshot fingerprint mismatch: stored %016x, recomputed %016x", fp, got)
	}
	return db, nil
}

// ReadSnapshotFingerprint reads just the header of a snapshot stream
// and returns the stored content fingerprint. The row log uses it to
// bind log files to the snapshot they extend without parsing the whole
// snapshot.
func ReadSnapshotFingerprint(r io.Reader) (uint64, error) {
	return readHeader(r, "snapshot", snapMagic, snapVersion)
}

// decodeSnapshot parses a snapshot stream into its database and the
// fingerprint its header stores, leaving the comparison of the two to
// the caller.
func decodeSnapshot(r io.Reader) (*Database, uint64, error) {
	br := bufio.NewReader(r)
	fp, err := ReadSnapshotFingerprint(br)
	if err != nil {
		return nil, 0, err
	}

	// meta: relation count.
	payload, err := readSection(br, secMeta)
	if err != nil {
		return nil, 0, err
	}
	pr := payloadReader{b: payload}
	relCount := int(pr.u32())
	if pr.err != nil || relCount < 1 || relCount > 1<<20 || pr.remaining() != 0 {
		return nil, 0, fmt.Errorf("relation: snapshot meta section malformed")
	}

	// dict: the interned datums in code order.
	payload, err = readSection(br, secDict)
	if err != nil {
		return nil, 0, err
	}
	pr = payloadReader{b: payload}
	dictLen := int(pr.u32())
	// Every datum costs at least its 4-byte length prefix, so the count
	// is bounded by the payload before any count-sized allocation.
	if pr.err != nil || dictLen*4 > pr.remaining() {
		return nil, 0, fmt.Errorf("relation: snapshot dictionary malformed")
	}
	dict := &Dict{codes: make(map[string]int32, dictLen), datums: make([]string, dictLen)}
	for i := 0; i < dictLen; i++ {
		s := pr.str()
		dict.datums[i] = s
		dict.codes[s] = int32(i + 1)
		// A repeated datum would give one value two codes, and the
		// engine joins on codes: equal values would stop joining.
		if len(dict.codes) != i+1 && pr.err == nil {
			return nil, 0, fmt.Errorf("relation: snapshot dictionary repeats datum %q", s)
		}
	}
	if pr.err != nil || pr.remaining() != 0 {
		return nil, 0, fmt.Errorf("relation: snapshot dictionary malformed")
	}

	// The per-relation slices grow as sections arrive, not from the
	// declared count.
	var (
		rels        []*Relation
		cols        [][][]int32
		imps, probs [][]float64
	)
	for r := 0; r < relCount; r++ {
		payload, err = readSection(br, secRelation)
		if err != nil {
			return nil, 0, err
		}
		rel, relCols, imp, prob, err := parseRelationSection(payload, dict)
		if err != nil {
			return nil, 0, fmt.Errorf("relation: snapshot relation %d: %w", r, err)
		}
		rels = append(rels, rel)
		cols = append(cols, relCols)
		imps = append(imps, imp)
		probs = append(probs, prob)
	}

	payload, err = readSection(br, secEnd)
	if err != nil {
		return nil, 0, err
	}
	if len(payload) != 0 {
		return nil, 0, fmt.Errorf("relation: snapshot end marker carries payload")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, 0, fmt.Errorf("relation: trailing data after snapshot end marker")
	}

	db, err := NewDatabase(rels...)
	if err != nil {
		return nil, 0, fmt.Errorf("relation: snapshot: %w", err)
	}
	db.adoptEncoding(dict, cols, imps, probs)
	return db, fp, nil
}

// readSection reads the next section, demands it carry the given id,
// verifies its checksum and returns the payload.
func readSection(br *bufio.Reader, wantID uint16) ([]byte, error) {
	var sh [10]byte
	if _, err := io.ReadFull(br, sh[:]); err != nil {
		return nil, fmt.Errorf("relation: snapshot truncated (reading section header): %w", err)
	}
	if id := binary.LittleEndian.Uint16(sh[0:2]); id != wantID {
		return nil, fmt.Errorf("relation: snapshot section order: got id %d, want %d", id, wantID)
	}
	payload, err := readChecksummed(br, binary.LittleEndian.Uint64(sh[2:10]), maxSectionLen)
	if err != nil {
		return nil, fmt.Errorf("relation: snapshot section %d: %w", wantID, err)
	}
	return payload, nil
}

// parseRelationSection decodes one relation section: the relation with
// its tuples materialised from the code columns, plus the raw columns
// for adoption into the mirror.
func parseRelationSection(payload []byte, dict *Dict) (*Relation, [][]int32, []float64, []float64, error) {
	pr := payloadReader{b: payload}
	name := pr.str()
	width := int(pr.u32())
	// Each attribute costs at least its 4-byte length prefix; bounding
	// the count by the remaining payload keeps a corrupt width from
	// demanding an absurd allocation.
	if pr.err != nil || width < 1 || width*4 > pr.remaining() {
		return nil, nil, nil, nil, fmt.Errorf("malformed schema")
	}
	attrs := make([]Attribute, width)
	for i := range attrs {
		attrs[i] = Attribute(pr.str())
	}
	if pr.err != nil {
		return nil, nil, nil, nil, pr.err
	}
	schema, err := NewSchema(attrs...)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	if schema.Len() != width {
		return nil, nil, nil, nil, fmt.Errorf("schema attributes not unique")
	}
	for i, a := range schema.Attributes() {
		if a != attrs[i] {
			return nil, nil, nil, nil, fmt.Errorf("schema attributes not in sorted order")
		}
	}
	rel, err := NewRelation(name, schema)
	if err != nil {
		return nil, nil, nil, nil, err
	}

	m := int(pr.u32())
	if pr.err != nil || m < 0 {
		return nil, nil, nil, nil, fmt.Errorf("malformed tuple count")
	}
	// The remaining payload must hold m labels (≥ 4 bytes each), the
	// code matrix, and two float columns; check the fixed-size part
	// before allocating.
	if need := uint64(width)*uint64(m)*4 + uint64(m)*16; uint64(pr.remaining()) < need {
		return nil, nil, nil, nil, fmt.Errorf("payload shorter than declared columns")
	}
	labels := make([]string, m)
	for i := range labels {
		labels[i] = pr.str()
	}
	relCols := make([][]int32, width)
	flat := make([]int32, width*m) // one backing array, as in ensureEncoded
	for p := range relCols {
		relCols[p] = flat[p*m : (p+1)*m : (p+1)*m]
		for i := 0; i < m; i++ {
			c := pr.i32()
			if c < 0 || int(c) > dict.Len() {
				return nil, nil, nil, nil, fmt.Errorf("code %d outside dictionary (size %d)", c, dict.Len())
			}
			relCols[p][i] = c
		}
	}
	imp := make([]float64, m)
	for i := range imp {
		imp[i] = pr.f64()
	}
	prob := make([]float64, m)
	for i := range prob {
		prob[i] = pr.f64()
	}
	if pr.err != nil {
		return nil, nil, nil, nil, pr.err
	}
	if pr.remaining() != 0 {
		return nil, nil, nil, nil, fmt.Errorf("trailing bytes in relation section")
	}

	// Materialise the tuples by decoding the columns, so the loaded
	// relation renders, exports and extends exactly like the written
	// one.
	rel.tuples = make([]Tuple, m)
	for i := 0; i < m; i++ {
		vals := make([]Value, width)
		for p := 0; p < width; p++ {
			if c := relCols[p][i]; c != NullCode {
				vals[p] = V(dict.datums[c-1])
			}
		}
		rel.tuples[i] = Tuple{Label: labels[i], Values: vals, Imp: imp[i], Prob: prob[i]}
		if err := rel.CheckTuple(&rel.tuples[i]); err != nil {
			return nil, nil, nil, nil, fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return rel, relCols, imp, prob, nil
}

// adoptEncoding installs a pre-built columnar mirror (from a snapshot)
// as the database's encoding, freezing the relations — the load-time
// counterpart of ensureEncoded that skips all interning.
func (db *Database) adoptEncoding(dict *Dict, cols [][][]int32, imps, probs [][]float64) {
	db.encodeOnce.Do(func() {
		for _, rel := range db.rels {
			rel.freeze()
		}
		db.dict = dict
		db.cols = cols
		db.imps = imps
		db.probs = probs
		db.index = buildJoinIndex(cols)
	})
}
