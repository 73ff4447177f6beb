package relation

// The row-log format: an append-only file of tuples appended to a
// database since its snapshot was written. Its header records the
// fingerprint of the snapshot it extends, and each record is one
// appended tuple (see docs/SNAPSHOT_FORMAT.md):
//
//	header  magic "FDLG" | version u16 | snapshot fingerprint u64 | crc32
//	record  length u32 | payload | crc32(payload)
//	payload relation lenstr | label lenstr | nvals u32 |
//	        nvals × (null flag u8 [| datum lenstr]) | imp f64 | prob f64
//
// A torn or corrupt record, including a truncated tail from a crash
// mid-append, fails the read loudly; recovery policy is to re-register
// the database (or delete the log), never to silently drop rows.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

const (
	logMagic   = "FDLG"
	logVersion = 1

	// maxRecordLen caps a row-log record's length.
	maxRecordLen = 1 << 26
)

// RowRecord is one row-log record: a tuple appended to the named
// relation.
type RowRecord struct {
	Relation string
	Tuple    Tuple
}

// AppendRowLog appends to dst the row-log records of tuples appended to
// relation relName, one record per tuple. When header is set (the log
// file is new) the records are preceded by the file header binding the
// log to the snapshot fingerprint fp. A record longer than the format's
// 64 MiB cap is an error.
func AppendRowLog(dst []byte, header bool, fp uint64, relName string, tuples []Tuple) ([]byte, error) {
	if header {
		dst = appendHeader(dst, logMagic, logVersion, fp)
	}
	p := payloadWriter{dst}
	for i := range tuples {
		t := &tuples[i]
		start := len(p.b)
		p.u32(0) // the record length, set below
		p.str(relName)
		p.str(t.Label)
		p.u32(uint32(len(t.Values)))
		for _, v := range t.Values {
			if v.IsNull() {
				p.u8(0)
				continue
			}
			p.u8(1)
			p.str(v.Datum())
		}
		p.f64(t.Imp)
		p.f64(t.Prob)
		n := len(p.b) - start - 4
		if n > maxRecordLen {
			return nil, fmt.Errorf("relation: row-log record of %d bytes exceeds cap %d", n, maxRecordLen)
		}
		binary.LittleEndian.PutUint32(p.b[start:], uint32(n))
		p.u32(crc32.ChecksumIEEE(p.b[start+4:]))
	}
	return p.b, nil
}

// ReadRowLog reads a row log, returning its records and the fingerprint
// of the snapshot it extends. An empty input (a log created but never
// written) yields no records; any malformed byte (bad magic, unknown
// version, checksum mismatch, a truncated or malformed record) is an
// error.
func ReadRowLog(r io.Reader) ([]RowRecord, uint64, error) {
	br := bufio.NewReader(r)
	fp, err := readHeader(br, "row log", logMagic, logVersion)
	if errors.Is(err, io.EOF) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	var recs []RowRecord
	for i := 0; ; i++ {
		var n [4]byte
		if _, err := io.ReadFull(br, n[:]); err == io.EOF {
			return recs, fp, nil
		} else if err != nil {
			return nil, 0, fmt.Errorf("relation: row-log record %d: reading length: %w", i, err)
		}
		payload, err := readChecksummed(br, uint64(binary.LittleEndian.Uint32(n[:])), maxRecordLen)
		if err != nil {
			return nil, 0, fmt.Errorf("relation: row-log record %d: %w", i, err)
		}
		rec, err := decodeRowRecord(payload)
		if err != nil {
			return nil, 0, fmt.Errorf("relation: row-log record %d: %w", i, err)
		}
		recs = append(recs, rec)
	}
}

func decodeRowRecord(payload []byte) (RowRecord, error) {
	pr := payloadReader{b: payload}
	rec := RowRecord{Relation: pr.str()}
	rec.Tuple.Label = pr.str()
	// Every value costs at least its flag byte, so the count is bounded
	// by the payload before the count-sized allocation.
	if nvals := int(pr.u32()); pr.err == nil && nvals <= pr.remaining() {
		rec.Tuple.Values = make([]Value, nvals)
	} else {
		pr.fail()
	}
	for i := range rec.Tuple.Values {
		switch flag := pr.u8(); flag {
		case 0:
			// stays ⊥
		case 1:
			rec.Tuple.Values[i] = V(pr.str())
		default:
			return rec, fmt.Errorf("unknown value flag %d", flag)
		}
	}
	rec.Tuple.Imp = pr.f64()
	rec.Tuple.Prob = pr.f64()
	if pr.err != nil {
		return rec, pr.err
	}
	if pr.remaining() != 0 {
		return rec, fmt.Errorf("trailing bytes in payload")
	}
	return rec, nil
}

// Replay grows the database by the row-log records the way live appends
// grew it: each record is checked against its relation's schema, and
// Extend runs once per relation that has records, its rows in log
// order. The fingerprint hashes each relation's rows in their own
// chain, so regrouping an interleaved log by relation keeps it. Replay
// returns db itself when recs is empty.
func (db *Database) Replay(recs []RowRecord) (*Database, error) {
	batches := make([][]Tuple, db.NumRelations())
	for i := range recs {
		rec := &recs[i]
		idx, ok := db.RelationIndex(rec.Relation)
		if !ok {
			return nil, fmt.Errorf("log record %d names unknown relation %q", i, rec.Relation)
		}
		if err := db.rels[idx].CheckTuple(&rec.Tuple); err != nil {
			return nil, fmt.Errorf("log record %d: %w", i, err)
		}
		batches[idx] = append(batches[idx], rec.Tuple)
	}
	for idx, tuples := range batches {
		if len(tuples) == 0 {
			continue
		}
		var err error
		if db, err = db.Extend(idx, tuples); err != nil {
			return nil, err
		}
	}
	return db, nil
}
