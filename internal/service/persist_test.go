package service

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/store"
)

func openStore(t *testing.T) *store.Store {
	t.Helper()
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDurableRegistryRecovers is the restart scenario of the acceptance
// criteria at the service level: register databases against a store,
// tear the service down, bring a second service up over the same store,
// and demand the same names, fingerprints and query results.
func TestDurableRegistryRecovers(t *testing.T) {
	st := openStore(t)

	svc := New(Config{Store: st})
	info1, err := svc.AddDatabase("alpha", testDB(t, "chain", 31))
	if err != nil {
		t.Fatal(err)
	}
	info2, err := svc.AddDatabase("beta", testDB(t, "star", 32))
	if err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "alpha", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(drain(t, q, 5))
	svc.Close()

	svc2 := New(Config{Store: st})
	infos, err := svc2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	defer svc2.Close()
	if len(infos) != 2 {
		t.Fatalf("recovered %d databases, want 2", len(infos))
	}
	listed := svc2.ListDatabases()
	if len(listed) != 2 || listed[0] != info1 || listed[1] != info2 {
		t.Fatalf("ListDatabases = %+v, want [%+v %+v]", listed, info1, info2)
	}
	q2, err := svc2.StartQuery(context.Background(), "alpha", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(drain(t, q2, 5))
	if len(got) != len(want) {
		t.Fatalf("recovered query returned %d distinct sets, want %d", len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("recovered query multiset differs at %q: %d vs %d", k, got[k], n)
		}
	}
}

func TestDropDatabaseDeletesPersistedFiles(t *testing.T) {
	st := openStore(t)
	svc := New(Config{Store: st})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 33)); err != nil {
		t.Fatal(err)
	}
	names, err := st.List()
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := svc.DropDatabase("w"); err != nil {
		t.Fatal(err)
	}
	names, err = st.List()
	if err != nil || len(names) != 0 {
		t.Fatalf("List after drop = %v, %v", names, err)
	}
}

// TestRecoverSkipsCorruptDatabase: one bad snapshot must not block
// recovery of the healthy ones.
func TestRecoverSkipsCorruptDatabase(t *testing.T) {
	st := openStore(t)
	svc := New(Config{Store: st})
	if _, err := svc.AddDatabase("good", testDB(t, "chain", 34)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDatabase("bad", testDB(t, "chain", 35)); err != nil {
		t.Fatal(err)
	}
	svc.Close()

	// Corrupt "bad"'s snapshot on disk.
	matches, err := filepath.Glob(filepath.Join(st.Dir(), "bad*"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("glob: %v %v", matches, err)
	}
	raw, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/3] ^= 0x20
	if err := os.WriteFile(matches[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	svc2 := New(Config{Store: st})
	defer svc2.Close()
	infos, err := svc2.Recover()
	if err == nil {
		t.Fatal("recover over a corrupt snapshot reported no error")
	}
	if len(infos) != 1 || infos[0].Name != "good" {
		t.Fatalf("recovered %+v, want just \"good\"", infos)
	}
}

// TestAppendRowsDurable: AppendRows must be visible to new queries,
// leave old sessions untouched, reach the durable row log, and survive
// recovery (which compacts the log into the snapshot).
func TestAppendRowsDurable(t *testing.T) {
	st := openStore(t)
	svc := New(Config{Store: st})
	db := testDB(t, "chain", 36)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	before := db.NumTuples()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}

	// An old session keeps paging the pre-append database.
	oldQ, err := svc.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	oldWant := keysOf(drain(t, oldQ, 3))

	row := relation.Tuple{Label: "fresh", Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	row.Values[0] = relation.V("fresh-datum")
	info, err := svc.AppendRows("w", relName, []relation.Tuple{row})
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != before+1 {
		t.Fatalf("append reported %d tuples, want %d", info.Tuples, before+1)
	}
	got, ok := svc.Database("w")
	if !ok || got.NumTuples() != before+1 {
		t.Fatalf("registry not swapped: %v tuples", got.NumTuples())
	}
	if got == db {
		t.Fatal("append mutated the registered database in place")
	}
	if db.NumTuples() != before {
		t.Fatalf("old database gained tuples: %d", db.NumTuples())
	}

	// The old session's enumeration (started pre-append) is unaffected.
	oldQ2, err := svc.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	newGot := keysOf(drain(t, oldQ2, 3))
	if len(newGot) == len(oldWant) {
		t.Log("note: appended row did not change |FD| (possible but unusual)")
	}
	svc.Close()

	// Restart: the log replays, then compacts.
	svc2 := New(Config{Store: st})
	defer svc2.Close()
	infos, err := svc2.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(infos) != 1 || infos[0] != info {
		t.Fatalf("recovered %+v, want [%+v]", infos, info)
	}
	rec, _ := svc2.Database("w")
	if rec.NumTuples() != before+1 {
		t.Fatalf("recovered database has %d tuples, want %d", rec.NumTuples(), before+1)
	}
}

func TestAppendRowsValidation(t *testing.T) {
	svc := New(Config{}) // no store: append still works, in memory only
	defer svc.Close()
	db := testDB(t, "chain", 37)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AppendRows("w", relName, nil); err == nil {
		t.Fatal("empty append accepted")
	}
	if _, err := svc.AppendRows("nope", relName, make([]relation.Tuple, 1)); err == nil {
		t.Fatal("unknown database accepted")
	}
	if _, err := svc.AppendRows("w", "nope", make([]relation.Tuple, 1)); err == nil {
		t.Fatal("unknown relation accepted")
	}
	bad := relation.Tuple{Values: make([]relation.Value, width+1), Imp: 1, Prob: 1}
	if _, err := svc.AppendRows("w", relName, []relation.Tuple{bad}); err == nil {
		t.Fatal("wrong-width row accepted")
	}
	good := relation.Tuple{Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	if _, err := svc.AppendRows("w", relName, []relation.Tuple{good}); err != nil {
		t.Fatalf("in-memory append: %v", err)
	}
}

// TestCacheByteEviction: the result cache must evict by approximate
// bytes, not just entry count, and surface the byte gauge in Stats.
func TestCacheByteEviction(t *testing.T) {
	db := testDB(t, "chain", 38)
	svc := New(Config{CacheCapacity: 64, CacheMaxBytes: 1}) // 1 byte: nothing fits
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q, 7)
	st := svc.Stats()
	if st.CacheEntries != 0 || st.CacheBytes != 0 {
		t.Fatalf("cache retained %d entries / %d bytes under a 1-byte budget",
			st.CacheEntries, st.CacheBytes)
	}

	// With a roomy budget the drained list is cached and the gauge is
	// positive; a repeat query hits.
	svc2 := New(Config{CacheCapacity: 64, CacheMaxBytes: 1 << 20})
	defer svc2.Close()
	if _, err := svc2.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q2, err := svc2.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q2, 7)
	st2 := svc2.Stats()
	if st2.CacheEntries != 1 || st2.CacheBytes <= 0 {
		t.Fatalf("cache entries %d bytes %d, want 1 entry with positive bytes",
			st2.CacheEntries, st2.CacheBytes)
	}
	q3, err := svc2.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !q3.FromCache() {
		t.Fatal("repeat query missed the cache")
	}
}
