package relation_test

// Fuzz targets and regression tests for the two binary readers,
// relation.ReadSnapshot and relation.ReadRowLog. Each target re-frames
// its input with valid checksums before reading it (and, for some
// snapshot inputs, a header fingerprint matching the content), so
// mutations get past the CRCs and reach the decoders. The properties:
// no panic; allocation within a fixed multiple of the input length; on
// success the input re-encodes to the same bytes, and the database
// answers the exact full disjunction (Workers 1) that NewDatabase
// rebuilt from its tuples answers. The seed corpora are
// testdata/fuzz/FuzzReadSnapshot and testdata/fuzz/FuzzReadRowLog; run
// the fuzzers with
//
//	go test -run '^$' -fuzz FuzzReadSnapshot -fuzztime 20s ./internal/relation
//	go test -run '^$' -fuzz FuzzReadRowLog -fuzztime 20s ./internal/relation

import (
	"bytes"
	"context"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/workload"
)

// headerLen is the byte length of both formats' file header: magic,
// version, fingerprint, crc32.
const headerLen = 4 + 2 + 8 + 4

// sealHeader recomputes the header checksum of raw in place.
func sealHeader(raw []byte) {
	if len(raw) >= headerLen {
		binary.LittleEndian.PutUint32(raw[14:18], crc32.ChecksumIEEE(raw[:14]))
	}
}

// reframe returns a copy of raw whose header checksum and frame
// checksums are recomputed. Frames start after the header; each has a
// prefix of prefixLen bytes ending in its payload length (lenBytes
// wide), then the payload and its CRC32. The walk stops at the first
// frame whose declared payload is not all present.
func reframe(raw []byte, prefixLen, lenBytes int) []byte {
	out := append([]byte(nil), raw...)
	sealHeader(out)
	for off := headerLen; off+prefixLen <= len(out); {
		var n uint64
		if lenBytes == 8 {
			n = binary.LittleEndian.Uint64(out[off+prefixLen-8:])
		} else {
			n = uint64(binary.LittleEndian.Uint32(out[off+prefixLen-4:]))
		}
		body := off + prefixLen
		if n > uint64(len(out)-body) || len(out)-body-int(n) < 4 {
			break
		}
		end := body + int(n)
		binary.LittleEndian.PutUint32(out[end:], crc32.ChecksumIEEE(out[body:end]))
		off = end + 4
	}
	return out
}

// reframeSnapshot re-frames a snapshot's sections (id u16, length u64);
// with fixFingerprint the header also takes the fingerprint the content
// hashes to, when the content decodes.
func reframeSnapshot(raw []byte, fixFingerprint bool) []byte {
	out := reframe(raw, 10, 8)
	if !fixFingerprint {
		return out
	}
	if fp, ok := relation.SnapshotContentFingerprint(out); ok {
		binary.LittleEndian.PutUint64(out[6:14], fp)
		sealHeader(out)
	}
	return out
}

// reframeRowLog re-frames a row log's records (length u32).
func reframeRowLog(raw []byte) []byte { return reframe(raw, 4, 4) }

// allocated reports the bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// checkAlloc fails when reading n input bytes allocated more than a
// fixed multiple of n, plus a constant for the read buffers, the
// database's fixed structures and the reader's error values.
func checkAlloc(t *testing.T, what string, n int, alloc uint64) {
	t.Helper()
	if bound := uint64(64*n + 256<<10); alloc > bound {
		t.Fatalf("%s of %d bytes allocated %d bytes (bound %d)", what, n, alloc, bound)
	}
}

// maxFDTuples bounds the databases whose full disjunction the fuzz
// targets compute, keeping each input fast.
const maxFDTuples = 24

// exactFD returns the Workers-1 exact full disjunction of db as a
// multiset of tuple-set keys.
func exactFD(t *testing.T, db *relation.Database) map[string]int {
	t.Helper()
	c, err := core.NewCursor(context.Background(), db, core.JCC, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got := map[string]int{}
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		got[r.Set.Key()]++
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return got
}

// rebuild builds a fresh database holding db's relations and tuples,
// plus extra tuples appended to the named relations, through
// NewRelation, AppendTuple and NewDatabase: the path that interns every
// value itself.
func rebuild(t *testing.T, db *relation.Database, extra []relation.RowRecord) *relation.Database {
	t.Helper()
	rels := make([]*relation.Relation, db.NumRelations())
	for r := range rels {
		src := db.Relation(r)
		rel, err := relation.NewRelation(src.Name(), src.Schema())
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < src.Len(); i++ {
			if err := rel.AppendTuple(*src.Tuple(i)); err != nil {
				t.Fatal(err)
			}
		}
		rels[r] = rel
	}
	for _, rec := range extra {
		idx, _ := db.RelationIndex(rec.Relation)
		if err := rels[idx].AppendTuple(rec.Tuple); err != nil {
			t.Fatal(err)
		}
	}
	out, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// checkAnswers holds db to the database rebuilt from its tuples: same
// fingerprint, and (for small databases) the same exact FD.
func checkAnswers(t *testing.T, db, fresh *relation.Database) {
	t.Helper()
	if got, want := db.Fingerprint(), fresh.Fingerprint(); got != want {
		t.Fatalf("fingerprint %016x, rebuilt database %016x", got, want)
	}
	if db.NumTuples() > maxFDTuples {
		return
	}
	got, want := exactFD(t, db), exactFD(t, fresh)
	if len(got) != len(want) {
		t.Fatalf("exact FD has %d results, rebuilt database %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("exact FD differs from the rebuilt database's (%d results)", len(want))
		}
	}
}

func snapshotOf(t testing.TB, db *relation.Database) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rowLogBase is the database the row-log target replays onto: R(A, B)
// and S(A, C), joined on A.
func rowLogBase() *relation.Database {
	r := relation.MustRelation("R", relation.MustSchema("A", "B"))
	r.MustAppend("r1", map[relation.Attribute]relation.Value{"A": relation.V("x"), "B": relation.V("b")})
	s := relation.MustRelation("S", relation.MustSchema("A", "C"))
	s.MustAppend("s1", map[relation.Attribute]relation.Value{"A": relation.V("x"), "C": relation.V("c")})
	return relation.MustDatabase(r, s)
}

// twoAppends is a row log onto rowLogBase holding two appends.
func twoAppends(t testing.TB) []byte {
	t.Helper()
	fp := rowLogBase().Fingerprint()
	raw, err := relation.AppendRowLog(nil, true, fp, "S", []relation.Tuple{
		{Label: "s2", Values: []relation.Value{relation.V("y"), relation.Null}, Imp: 2, Prob: 0.5},
	})
	if err != nil {
		t.Fatal(err)
	}
	raw, err = relation.AppendRowLog(raw, false, fp, "R", []relation.Tuple{
		{Values: []relation.Value{relation.V("y"), relation.V("")}, Imp: 1, Prob: 1},
		{Label: "r3", Values: []relation.Value{relation.V("x"), relation.Null}, Imp: 0.5, Prob: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

func FuzzReadSnapshot(f *testing.F) {
	for _, db := range []*relation.Database{workload.Tourist(), rowLogBase()} {
		f.Add(snapshotOf(f, db), false)
	}
	f.Fuzz(func(t *testing.T, raw []byte, fixFingerprint bool) {
		in := reframeSnapshot(raw, fixFingerprint)
		var (
			db  *relation.Database
			err error
		)
		checkAlloc(t, "ReadSnapshot", len(in), allocated(func() {
			db, err = relation.ReadSnapshot(bytes.NewReader(in))
		}))
		if err != nil {
			return
		}
		if out := snapshotOf(t, db); !bytes.Equal(out, in) {
			t.Fatalf("loaded snapshot re-encodes to different bytes (%d, read %d)", len(out), len(in))
		}
		checkAnswers(t, db, rebuild(t, db, nil))
	})
}

func FuzzReadRowLog(f *testing.F) {
	f.Add(twoAppends(f))
	f.Fuzz(func(t *testing.T, raw []byte) {
		in := reframeRowLog(raw)
		var (
			recs []relation.RowRecord
			fp   uint64
			err  error
		)
		checkAlloc(t, "ReadRowLog", len(in), allocated(func() {
			recs, fp, err = relation.ReadRowLog(bytes.NewReader(in))
		}))
		if err != nil {
			return
		}
		out, _ := relation.AppendRowLog(nil, len(in) > 0, fp, "", nil)
		for _, rec := range recs {
			if out, err = relation.AppendRowLog(out, false, fp, rec.Relation, []relation.Tuple{rec.Tuple}); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("%d records re-encode to different bytes (%d, read %d)", len(recs), len(out), len(in))
		}
		base := rowLogBase()
		db, err := base.Replay(recs)
		if err != nil {
			return
		}
		checkAnswers(t, db, rebuild(t, base, recs))
	})
}

// TestSnapshotRejectsRepeatedDatum loads a crafted snapshot of
// R{A:x, B:b} and S{A:x, C:c} whose dictionary is [x b c x], with S's A
// column pointing at the second x, and every checksum valid. Its
// fingerprint equals the well-formed file's (the fingerprint hashes
// values, not codes), but the engine joins on codes, so loading it
// would answer {r1} {s1} instead of {r1, s1}.
func TestSnapshotRejectsRepeatedDatum(t *testing.T) {
	raw, err := os.ReadFile("testdata/dup-datum.fdb")
	if err != nil {
		t.Fatal(err)
	}
	if fp, err := relation.ReadSnapshotFingerprint(bytes.NewReader(raw)); err != nil || fp != rowLogBase().Fingerprint() {
		t.Fatalf("crafted header: fingerprint %016x, %v; want the well-formed file's %016x", fp, err, rowLogBase().Fingerprint())
	}
	if _, err := relation.ReadSnapshot(bytes.NewReader(raw)); err == nil || !strings.Contains(err.Error(), "repeats datum") {
		t.Fatalf("ReadSnapshot = %v, want a repeated-datum error", err)
	}
}

// TestDeclaredLengthAllocatesOnlyBytesPresent feeds each reader a valid
// header and then a frame that declares far more bytes than follow:
// 1 GiB for a snapshot section, the 64 MiB cap for a row-log record.
// The reads must fail having allocated well under a MiB.
func TestDeclaredLengthAllocatesOnlyBytesPresent(t *testing.T) {
	snap := snapshotOf(t, rowLogBase())[:headerLen]
	snap = binary.LittleEndian.AppendUint16(snap, 0) // meta section
	snap = binary.LittleEndian.AppendUint64(snap, 1<<30)
	log := twoAppends(t)[:headerLen]
	log = binary.LittleEndian.AppendUint32(log, 1<<26)

	for _, c := range []struct {
		name string
		read func() error
	}{
		{"snapshot", func() error { _, err := relation.ReadSnapshot(bytes.NewReader(snap)); return err }},
		{"row log", func() error { _, _, err := relation.ReadRowLog(bytes.NewReader(log)); return err }},
	} {
		var err error
		if alloc := allocated(func() { err = c.read() }); alloc >= 1<<20 {
			t.Errorf("%s: allocated %d bytes", c.name, alloc)
		}
		if err == nil {
			t.Errorf("%s: truncated frame accepted", c.name)
		}
	}
}

func TestRowLogRejectsEveryByteFlip(t *testing.T) {
	raw := twoAppends(t)
	recs, fp, err := relation.ReadRowLog(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if fp != rowLogBase().Fingerprint() || len(recs) != 3 || recs[0].Relation != "S" || recs[2].Tuple.Label != "r3" ||
		recs[1].Tuple.Values[1] != relation.V("") || !recs[2].Tuple.Values[1].IsNull() {
		t.Fatalf("read back %016x %+v", fp, recs)
	}
	for i := range raw {
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x40
		if _, _, err := relation.ReadRowLog(bytes.NewReader(mut)); err == nil {
			t.Fatalf("flip of byte %d of %d accepted", i, len(raw))
		}
	}
}
