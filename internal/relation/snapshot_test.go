package relation

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"strings"
	"testing"
)

// snapshotTestDatabase builds a small database exercising the format's
// corners: nulls, labels, an empty-string datum (non-null), shared and
// private attributes, and non-default imp/prob metadata.
func snapshotTestDatabase(t *testing.T) *Database {
	t.Helper()
	r1 := MustRelation("Climates", MustSchema("Country", "Climate"))
	r1.MustAppend("c1", map[Attribute]Value{"Country": V("Canada"), "Climate": V("cold")})
	r1.MustAppend("c2", map[Attribute]Value{"Country": V("Cuba")})
	if err := r1.AppendTuple(Tuple{Label: "c3", Values: []Value{V(""), Null}, Imp: 2.5, Prob: 0.75}); err != nil {
		t.Fatal(err)
	}
	r2 := MustRelation("Sites", MustSchema("Country", "Site"))
	r2.MustAppend("s1", map[Attribute]Value{"Country": V("Canada"), "Site": V("falls")})
	r2.MustAppend("s2", map[Attribute]Value{"Site": V("beach")})
	return MustDatabase(r1, r2)
}

func writeSnapshotBytes(t *testing.T, db *Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	return buf.Bytes()
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := snapshotTestDatabase(t)
	raw := writeSnapshotBytes(t, db)

	got, err := ReadSnapshot(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !got.Frozen() {
		t.Fatal("loaded database is not frozen")
	}
	if got.Fingerprint() != db.Fingerprint() {
		t.Fatalf("fingerprint mismatch: wrote %016x, loaded %016x", db.Fingerprint(), got.Fingerprint())
	}
	if got.NumRelations() != db.NumRelations() || got.NumTuples() != db.NumTuples() || got.Size() != db.Size() {
		t.Fatalf("shape mismatch: got %d rels %d tuples size %d", got.NumRelations(), got.NumTuples(), got.Size())
	}
	for r := 0; r < db.NumRelations(); r++ {
		want, have := db.Relation(r), got.Relation(r)
		if want.Name() != have.Name() || !want.Schema().Equal(have.Schema()) || want.Len() != have.Len() {
			t.Fatalf("relation %d metadata mismatch", r)
		}
		for i := 0; i < want.Len(); i++ {
			wt, ht := want.Tuple(i), have.Tuple(i)
			if wt.Label != ht.Label || wt.Imp != ht.Imp || wt.Prob != ht.Prob {
				t.Fatalf("relation %d tuple %d metadata mismatch: %+v vs %+v", r, i, wt, ht)
			}
			for p := range wt.Values {
				if wt.Values[p] != ht.Values[p] {
					t.Fatalf("relation %d tuple %d value %d: %v vs %v", r, i, p, wt.Values[p], ht.Values[p])
				}
			}
		}
	}
	// The dictionary and columns are adopted verbatim: codes must agree.
	for r := 0; r < db.NumRelations(); r++ {
		for p := 0; p < db.Relation(r).Schema().Len(); p++ {
			wantCol, haveCol := db.Col(r, p), got.Col(r, p)
			for i := range wantCol {
				if wantCol[i] != haveCol[i] {
					t.Fatalf("relation %d col %d idx %d: code %d vs %d", r, p, i, wantCol[i], haveCol[i])
				}
			}
		}
	}
	// A snapshot write is deterministic: same content, same bytes.
	if !bytes.Equal(raw, writeSnapshotBytes(t, got)) {
		t.Fatal("re-written snapshot differs from the original bytes")
	}
}

func TestSnapshotRejectsEveryByteFlip(t *testing.T) {
	raw := writeSnapshotBytes(t, snapshotTestDatabase(t))
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if _, err := ReadSnapshot(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip of byte %d of %d accepted", i, len(raw))
		}
	}
}

func TestSnapshotRejectsTruncation(t *testing.T) {
	raw := writeSnapshotBytes(t, snapshotTestDatabase(t))
	for n := 0; n < len(raw); n += 7 {
		if _, err := ReadSnapshot(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation to %d of %d bytes accepted", n, len(raw))
		}
	}
	if _, err := ReadSnapshot(bytes.NewReader(raw[:len(raw)-1])); err == nil {
		t.Fatal("truncation by one byte accepted")
	}
	if _, err := ReadSnapshot(bytes.NewReader(append(append([]byte(nil), raw...), 0))); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestSnapshotRejectsBadMagicAndVersion(t *testing.T) {
	raw := writeSnapshotBytes(t, snapshotTestDatabase(t))

	bad := append([]byte(nil), raw...)
	copy(bad[0:4], "NOPE")
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: %v", err)
	}

	bad = append([]byte(nil), raw...)
	binary.LittleEndian.PutUint16(bad[4:6], snapVersion+1)
	binary.LittleEndian.PutUint32(bad[14:18], crc32.ChecksumIEEE(bad[:14]))
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: %v", err)
	}
}

func TestSnapshotRejectsFingerprintMismatch(t *testing.T) {
	raw := writeSnapshotBytes(t, snapshotTestDatabase(t))
	// Tamper with the stored fingerprint and repair the header checksum,
	// so only the end-to-end fingerprint verification can catch it.
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint64(bad[6:14], binary.LittleEndian.Uint64(bad[6:14])^1)
	binary.LittleEndian.PutUint32(bad[14:18], crc32.ChecksumIEEE(bad[:14]))
	if _, err := ReadSnapshot(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("fingerprint tamper: %v", err)
	}
}

func TestReadSnapshotFingerprint(t *testing.T) {
	db := snapshotTestDatabase(t)
	raw := writeSnapshotBytes(t, db)
	fp, err := ReadSnapshotFingerprint(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if fp != db.Fingerprint() {
		t.Fatalf("header fingerprint %016x, want %016x", fp, db.Fingerprint())
	}
}

// TestSnapshotRefusesNonFiniteImp writes a snapshot whose imps column
// holds a NaN or an infinity (the writer does not check; the field is
// written directly, past MutateTuple's check) and checks that it fails
// to load with an error naming the tuple.
func TestSnapshotRefusesNonFiniteImp(t *testing.T) {
	for _, imp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		db := snapshotTestDatabase(t)
		db.Relation(1).tuples[1].Imp = imp
		_, err := ReadSnapshot(bytes.NewReader(writeSnapshotBytes(t, db)))
		if err == nil || !strings.Contains(err.Error(), "tuple 1") || !strings.Contains(err.Error(), "importance") {
			t.Errorf("imp %v: ReadSnapshot = %v, want an importance error naming tuple 1", imp, err)
		}
	}
}
