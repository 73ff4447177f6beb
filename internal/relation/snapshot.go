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
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
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

	// maxSectionLen caps a section's declared payload length before any
	// allocation happens, so a corrupt length field cannot demand an
	// absurd buffer.
	maxSectionLen = 1 << 30
)

// snapHeaderLen is the byte length of the fixed header: magic, version,
// fingerprint, header CRC.
const snapHeaderLen = 4 + 2 + 8 + 4

// WriteSnapshot serialises the database in the versioned binary
// snapshot format. It freezes the database (the snapshot is the
// columnar mirror plus the metadata needed to rebuild the relations)
// and embeds the content fingerprint, which ReadSnapshot re-verifies.
func (db *Database) WriteSnapshot(w io.Writer) error {
	fp := db.Fingerprint() // freezes and encodes

	bw := bufio.NewWriter(w)
	var hdr [snapHeaderLen]byte
	copy(hdr[0:4], snapMagic)
	binary.LittleEndian.PutUint16(hdr[4:6], snapVersion)
	binary.LittleEndian.PutUint64(hdr[6:14], fp)
	binary.LittleEndian.PutUint32(hdr[14:18], crc32.ChecksumIEEE(hdr[:14]))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}

	var buf bytes.Buffer
	p := payloadWriter{&buf}
	emit := func(id uint16) error {
		var sh [10]byte
		binary.LittleEndian.PutUint16(sh[0:2], id)
		binary.LittleEndian.PutUint64(sh[2:10], uint64(buf.Len()))
		if _, err := bw.Write(sh[:]); err != nil {
			return err
		}
		if _, err := bw.Write(buf.Bytes()); err != nil {
			return err
		}
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32.ChecksumIEEE(buf.Bytes()))
		if _, err := bw.Write(crc[:]); err != nil {
			return err
		}
		buf.Reset()
		return nil
	}

	p.u32(uint32(len(db.rels)))
	if err := emit(secMeta); err != nil {
		return err
	}

	p.u32(uint32(db.dict.Len()))
	for c := int32(1); c <= int32(db.dict.Len()); c++ {
		p.str(db.dict.Datum(c))
	}
	if err := emit(secDict); err != nil {
		return err
	}

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
		if err := emit(secRelation); err != nil {
			return err
		}
	}

	if err := emit(secEnd); err != nil {
		return err
	}
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
	br := bufio.NewReader(r)
	fp, err := readSnapshotHeader(br)
	if err != nil {
		return nil, err
	}

	// meta: relation count.
	payload, err := readSection(br, secMeta)
	if err != nil {
		return nil, err
	}
	pr := payloadReader{b: payload}
	relCount := int(pr.u32())
	if pr.err != nil || relCount < 1 || relCount > 1<<20 || pr.remaining() != 0 {
		return nil, fmt.Errorf("relation: snapshot meta section malformed")
	}

	// dict: the interned datums in code order.
	payload, err = readSection(br, secDict)
	if err != nil {
		return nil, err
	}
	pr = payloadReader{b: payload}
	dictLen := int(pr.u32())
	// Every datum costs at least its 4-byte length prefix, so the count
	// is bounded by the payload before any count-sized allocation.
	if pr.err != nil || dictLen < 0 || dictLen*4 > pr.remaining() {
		return nil, fmt.Errorf("relation: snapshot dictionary malformed")
	}
	dict := &Dict{codes: make(map[string]int32, dictLen), datums: make([]string, dictLen)}
	for i := 0; i < dictLen; i++ {
		s := pr.str()
		dict.datums[i] = s
		dict.codes[s] = int32(i + 1)
	}
	if pr.err != nil || pr.remaining() != 0 {
		return nil, fmt.Errorf("relation: snapshot dictionary malformed")
	}

	rels := make([]*Relation, relCount)
	cols := make([][][]int32, relCount)
	imps := make([][]float64, relCount)
	probs := make([][]float64, relCount)
	for r := 0; r < relCount; r++ {
		payload, err = readSection(br, secRelation)
		if err != nil {
			return nil, err
		}
		rel, relCols, imp, prob, err := parseRelationSection(payload, dict)
		if err != nil {
			return nil, fmt.Errorf("relation: snapshot relation %d: %w", r, err)
		}
		rels[r] = rel
		cols[r] = relCols
		imps[r] = imp
		probs[r] = prob
	}

	payload, err = readSection(br, secEnd)
	if err != nil {
		return nil, err
	}
	if len(payload) != 0 {
		return nil, fmt.Errorf("relation: snapshot end marker carries payload")
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("relation: trailing data after snapshot end marker")
	}

	db, err := NewDatabase(rels...)
	if err != nil {
		return nil, fmt.Errorf("relation: snapshot: %w", err)
	}
	db.adoptEncoding(dict, cols, imps, probs)
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
	return readSnapshotHeader(bufio.NewReader(r))
}

func readSnapshotHeader(br *bufio.Reader) (uint64, error) {
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return 0, fmt.Errorf("relation: reading snapshot header: %w", err)
	}
	if string(hdr[0:4]) != snapMagic {
		return 0, fmt.Errorf("relation: not a snapshot file (bad magic %q)", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != snapVersion {
		return 0, fmt.Errorf("relation: unsupported snapshot version %d (supported: %d)", v, snapVersion)
	}
	want := binary.LittleEndian.Uint32(hdr[14:18])
	if got := crc32.ChecksumIEEE(hdr[:14]); got != want {
		return 0, fmt.Errorf("relation: snapshot header checksum mismatch")
	}
	return binary.LittleEndian.Uint64(hdr[6:14]), nil
}

// readSection reads the next section, demands it carry the given id,
// verifies its checksum and returns the payload.
func readSection(br *bufio.Reader, wantID uint16) ([]byte, error) {
	var sh [10]byte
	if _, err := io.ReadFull(br, sh[:]); err != nil {
		return nil, fmt.Errorf("relation: snapshot truncated (reading section header): %w", err)
	}
	id := binary.LittleEndian.Uint16(sh[0:2])
	if id != wantID {
		return nil, fmt.Errorf("relation: snapshot section order: got id %d, want %d", id, wantID)
	}
	n := binary.LittleEndian.Uint64(sh[2:10])
	if n > maxSectionLen {
		return nil, fmt.Errorf("relation: snapshot section %d declares %d bytes (cap %d)", id, n, maxSectionLen)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(br, payload); err != nil {
		return nil, fmt.Errorf("relation: snapshot truncated (section %d payload): %w", id, err)
	}
	var crc [4]byte
	if _, err := io.ReadFull(br, crc[:]); err != nil {
		return nil, fmt.Errorf("relation: snapshot truncated (section %d checksum): %w", id, err)
	}
	if got, want := crc32.ChecksumIEEE(payload), binary.LittleEndian.Uint32(crc[:]); got != want {
		return nil, fmt.Errorf("relation: snapshot section %d checksum mismatch", id)
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

// payloadWriter serialises primitive values into a section buffer.
// Writes to a bytes.Buffer cannot fail, so it carries no error state.
type payloadWriter struct{ buf *bytes.Buffer }

func (p payloadWriter) u32(v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	p.buf.Write(b[:])
}

func (p payloadWriter) i32(v int32) { p.u32(uint32(v)) }

func (p payloadWriter) f64(v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	p.buf.Write(b[:])
}

func (p payloadWriter) str(s string) {
	p.u32(uint32(len(s)))
	p.buf.WriteString(s)
}

// payloadReader deserialises primitive values from a section payload,
// latching the first error (all further reads return zero values).
type payloadReader struct {
	b   []byte
	off int
	err error
}

func (p *payloadReader) remaining() int { return len(p.b) - p.off }

func (p *payloadReader) fail() {
	if p.err == nil {
		p.err = fmt.Errorf("relation: snapshot payload truncated")
	}
}

func (p *payloadReader) u32() uint32 {
	if p.err != nil || p.remaining() < 4 {
		p.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(p.b[p.off:])
	p.off += 4
	return v
}

func (p *payloadReader) i32() int32 { return int32(p.u32()) }

func (p *payloadReader) f64() float64 {
	if p.err != nil || p.remaining() < 8 {
		p.fail()
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(p.b[p.off:]))
	p.off += 8
	return v
}

func (p *payloadReader) str() string {
	n := int(p.u32())
	if p.err != nil || n < 0 || p.remaining() < n {
		p.fail()
		return ""
	}
	s := string(p.b[p.off : p.off+n])
	p.off += n
	return s
}
