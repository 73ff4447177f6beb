package store

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/workload"
)

func testDB(t *testing.T, seed int64) *relation.Database {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestStoreSaveLoadListDelete(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 1)
	if err := st.Save("alpha", db); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("beta/with slash", testDB(t, 2)); err != nil {
		t.Fatal(err)
	}

	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"alpha", "beta/with slash"}; !equalStrings(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}

	got, replayed, err := st.Load("alpha")
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("fresh snapshot reported a log replay")
	}
	if got.Fingerprint() != db.Fingerprint() {
		t.Fatalf("fingerprint %016x, want %016x", got.Fingerprint(), db.Fingerprint())
	}

	if err := st.Delete("alpha"); err != nil {
		t.Fatal(err)
	}
	if err := st.Delete("alpha"); err != nil {
		t.Fatalf("double delete: %v", err)
	}
	if _, _, err := st.Load("alpha"); err == nil {
		t.Fatal("loading a deleted database succeeded")
	}
	names, _ = st.List()
	if want := []string{"beta/with slash"}; !equalStrings(names, want) {
		t.Fatalf("List after delete = %v, want %v", names, want)
	}
}

func TestStoreAppendReplayAndCompact(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 3)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	if err := st.Save("w", db); err != nil {
		t.Fatal(err)
	}

	rows := []relation.Tuple{
		{Label: "x1", Values: append([]relation.Value{relation.V("zz")},
			make([]relation.Value, width-1)...), Imp: 1, Prob: 1},
		{Label: "x2", Values: make([]relation.Value, width), Imp: 2, Prob: 0.5},
	}
	if err := st.Append("w", relName, rows, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := st.Append("w", relName, rows[:1], db.Fingerprint()); err != nil {
		t.Fatal(err) // second batch extends the existing log
	}
	if err := st.Append("w", relName, rows[:1], db.Fingerprint()^1); err == nil {
		t.Fatal("append against a mismatched snapshot fingerprint succeeded")
	}

	loaded, replayed, err := st.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	if !replayed {
		t.Fatal("log replay not reported")
	}
	idx, _ := loaded.RelationIndex(relName)
	if got, want := loaded.Relation(idx).Len(), db.Relation(0).Len()+3; got != want {
		t.Fatalf("replayed relation has %d tuples, want %d", got, want)
	}
	last := loaded.Relation(idx).Tuple(loaded.Relation(idx).Len() - 1)
	if last.Label != "x1" || last.Values[0] != relation.V("zz") {
		t.Fatalf("replayed tuple mismatch: %+v", last)
	}
	replayedFP := loaded.Fingerprint()
	if replayedFP == db.Fingerprint() {
		t.Fatal("replay did not change the fingerprint")
	}

	compacted, err := st.Compact("w")
	if err != nil {
		t.Fatal(err)
	}
	if !compacted {
		t.Fatal("compaction reported nothing to do")
	}
	if _, err := os.Stat(st.logPath("w")); !os.IsNotExist(err) {
		t.Fatal("log survived compaction")
	}
	again, replayed, err := st.Load("w")
	if err != nil {
		t.Fatal(err)
	}
	if replayed {
		t.Fatal("compacted snapshot still reports a replay")
	}
	if again.Fingerprint() != replayedFP {
		t.Fatalf("compaction changed content: %016x vs %016x", again.Fingerprint(), replayedFP)
	}
	if c, err := st.Compact("w"); err != nil || c {
		t.Fatalf("second compaction = (%v, %v), want (false, nil)", c, err)
	}
}

func TestStoreLoadRejectsTruncatedLog(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 4)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	if err := st.Save("w", db); err != nil {
		t.Fatal(err)
	}
	row := relation.Tuple{Label: "x", Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	if err := st.Append("w", relName, []relation.Tuple{row, row}, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(st.logPath("w"))
	if err != nil {
		t.Fatal(err)
	}
	// A crash mid-append tears the tail: every proper prefix past the
	// header must fail the load loudly, not silently drop rows.
	for _, cut := range []int{len(raw) - 1, len(raw) - 5, logHeaderLen + 3} {
		if err := os.WriteFile(st.logPath("w"), raw[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := st.Load("w"); err == nil {
			t.Fatalf("load with log truncated to %d of %d bytes succeeded", cut, len(raw))
		}
	}
	// Corrupt one payload byte: the record checksum must catch it.
	bad := append([]byte(nil), raw...)
	bad[logHeaderLen+6] ^= 0x01
	if err := os.WriteFile(st.logPath("w"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("w"); err == nil {
		t.Fatal("load with corrupt log record succeeded")
	}
}

func TestStoreLoadRejectsLogSnapshotMismatch(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 5)
	width := db.Relation(0).Schema().Len()
	if err := st.Save("w", db); err != nil {
		t.Fatal(err)
	}
	// A log bound to a different snapshot fingerprint must be refused.
	row := relation.Tuple{Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	if err := appendLog(st.fs, st.logPath("w"), db.Fingerprint()^1, db.Relation(0).Name(),
		[]relation.Tuple{row}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("w"); err == nil {
		t.Fatal("load with mismatched log fingerprint succeeded")
	}
}

// TestStoreCompactionCrashWindows simulates the two crash points of a
// log-folding Save: after the snapshot rename but before the log
// removal (marker fp == new snapshot fp → the log is already folded
// in, load must drop it and succeed), and before the rename (marker fp
// != snapshot fp → old snapshot + log are intact, load must replay).
func TestStoreCompactionCrashWindows(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 8)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	if err := st.Save("w", db); err != nil {
		t.Fatal(err)
	}
	row := relation.Tuple{Label: "x", Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	if err := st.Append("w", relName, []relation.Tuple{row}, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	appendedDB, replayed, err := st.Load("w")
	if err != nil || !replayed {
		t.Fatalf("Load = (%v, %v)", replayed, err)
	}
	appendedFP := appendedDB.Fingerprint()
	logRaw, err := os.ReadFile(st.logPath("w"))
	if err != nil {
		t.Fatal(err)
	}

	// Crash after the rename: new snapshot on disk, stale log, marker
	// recording the new snapshot's fingerprint.
	if err := st.Save("w", appendedDB); err != nil { // writes the folded snapshot, removes the log
		t.Fatal(err)
	}
	if err := os.WriteFile(st.logPath("w"), logRaw, 0o644); err != nil { // resurrect the stale log
		t.Fatal(err)
	}
	if err := st.writeMarker("w", appendedFP); err != nil {
		t.Fatal(err)
	}
	got, replayed, err := st.Load("w")
	if err != nil {
		t.Fatalf("load after interrupted compaction (post-rename): %v", err)
	}
	if replayed {
		t.Fatal("stale folded log was replayed")
	}
	if got.Fingerprint() != appendedFP {
		t.Fatalf("fingerprint %016x, want %016x", got.Fingerprint(), appendedFP)
	}
	if _, err := os.Stat(st.logPath("w")); !os.IsNotExist(err) {
		t.Fatal("stale log not cleaned up")
	}
	if _, err := os.Stat(st.markerPath("w")); !os.IsNotExist(err) {
		t.Fatal("marker not cleaned up")
	}

	// Crash before the rename: old snapshot + live log + marker whose
	// fingerprint matches neither — replay must proceed normally.
	if err := st.Save("w", db); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.logPath("w"), logRaw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := st.writeMarker("w", appendedFP); err != nil {
		t.Fatal(err)
	}
	got, replayed, err = st.Load("w")
	if err != nil {
		t.Fatalf("load after interrupted compaction (pre-rename): %v", err)
	}
	if !replayed {
		t.Fatal("live log was not replayed")
	}
	if got.Fingerprint() != appendedFP {
		t.Fatalf("fingerprint %016x, want %016x", got.Fingerprint(), appendedFP)
	}
	if _, err := os.Stat(st.markerPath("w")); !os.IsNotExist(err) {
		t.Fatal("marker not cleaned up after pre-rename recovery")
	}
}

func TestStoreLoadRejectsCorruptSnapshot(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("w", testDB(t, 6)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(st.snapshotPath("w"))
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x10
	if err := os.WriteFile(st.snapshotPath("w"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load("w"); err == nil {
		t.Fatal("load of corrupt snapshot succeeded")
	}
}

func TestStoreSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Save("w", testDB(t, 7)); err != nil {
		t.Fatal(err)
	}
	matches, err := filepath.Glob(filepath.Join(dir, tmpPrefix+"*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 0 {
		t.Fatalf("temp files left behind: %v", matches)
	}
}

// TestPropertySnapshotRoundTrip checks the tentpole contract on random
// chain/star/clique databases: save→load preserves the fingerprint, and
// the exact, ranked and approximate cursor enumerations are
// multiset-equal between the original and the loaded database.
func TestPropertySnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := []struct {
		name string
		gen  func(workload.Config) (*relation.Database, error)
	}{
		{"chain", workload.Chain},
		{"star", workload.Star},
		{"clique", workload.Clique},
	}
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 6; trial++ {
		shape := shapes[trial%len(shapes)]
		cfg := workload.Config{
			Relations:         2 + rng.Intn(3),
			TuplesPerRelation: 3 + rng.Intn(6),
			Domain:            2 + rng.Intn(3),
			NullRate:          rng.Float64() * 0.3,
			ImpMax:            1 + rng.Float64()*3,
			Seed:              rng.Int63(),
		}
		db, err := shape.gen(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Save("p", db); err != nil {
			t.Fatalf("%s trial %d: %v", shape.name, trial, err)
		}
		loaded, _, err := st.Load("p")
		if err != nil {
			t.Fatalf("%s trial %d: %v", shape.name, trial, err)
		}
		if loaded.Fingerprint() != db.Fingerprint() {
			t.Fatalf("%s trial %d: fingerprint %016x, want %016x",
				shape.name, trial, loaded.Fingerprint(), db.Fingerprint())
		}
		for _, mode := range []string{"exact", "ranked", "approx"} {
			want := enumerate(t, db, mode)
			got := enumerate(t, loaded, mode)
			if !equalStrings(got, want) {
				t.Fatalf("%s trial %d mode %s: loaded results differ\n got %v\nwant %v",
					shape.name, trial, mode, got, want)
			}
		}
	}
}

// enumerate drains one query mode through fd.Open and returns a sorted
// multiset rendering of the results (padded rows plus rank when
// ranked).
func enumerate(t *testing.T, db *relation.Database, mode string) []string {
	t.Helper()
	queries := map[string]fd.Query{
		"exact":  {Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 1}},
		"ranked": {Mode: fd.ModeRanked, Rank: "fmax"},
		"approx": {Mode: fd.ModeApprox, Tau: 0.8, Options: fd.QueryOptions{Workers: 1}},
	}
	q, ok := queries[mode]
	if !ok {
		t.Fatalf("unknown mode %s", mode)
	}
	rs, err := fd.Open(context.Background(), db, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.Close()
	var sets []*fd.TupleSet
	var ranks []float64
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		sets = append(sets, r.Set)
		if r.Ranked {
			ranks = append(ranks, r.Rank)
		}
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}

	attrs, rows := fd.PadAll(db, sets)
	out := make([]string, len(sets))
	for i := range sets {
		s := fd.Format(db, sets[i])
		for j := range attrs {
			s += "|" + rows[i].Values[j].String()
		}
		if ranks != nil {
			s += fmt.Sprintf("|rank=%.9g", ranks[i])
		}
		out[i] = s
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestStoreQuarantine(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := testDB(t, 11)
	relName := db.Relation(0).Name()
	width := db.Relation(0).Schema().Len()
	if err := st.Save("bad db", db); err != nil {
		t.Fatal(err)
	}
	row := relation.Tuple{Label: "x", Values: make([]relation.Value, width), Imp: 1, Prob: 1}
	if err := st.Append("bad db", relName, []relation.Tuple{row}, db.Fingerprint()); err != nil {
		t.Fatal(err)
	}
	if err := st.Save("ok", testDB(t, 12)); err != nil {
		t.Fatal(err)
	}

	label, err := st.Quarantine("bad db")
	if err != nil {
		t.Fatal(err)
	}
	if want := "bad%20db.corrupt-1"; label != want {
		t.Fatalf("label %q, want %q", label, want)
	}
	names, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ok"}; !equalStrings(names, want) {
		t.Fatalf("List after quarantine = %v, want %v", names, want)
	}
	q, err := st.ListQuarantined()
	if err != nil {
		t.Fatal(err)
	}
	if len(q) != 1 || q[0].Name != "bad db" || q[0].Label != label {
		t.Fatalf("ListQuarantined = %+v, want [{bad db %s}]", q, label)
	}
	// The quarantined files stay on disk for forensics.
	if _, err := os.Stat(st.snapshotPath("bad db") + ".corrupt-1"); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
	}
	if _, err := os.Stat(st.logPath("bad db") + ".corrupt-1"); err != nil {
		t.Fatalf("quarantined log missing: %v", err)
	}

	// The name is reusable, and a second quarantine picks the next N.
	if err := st.Save("bad db", db); err != nil {
		t.Fatal(err)
	}
	label2, err := st.Quarantine("bad db")
	if err != nil {
		t.Fatal(err)
	}
	if want := "bad%20db.corrupt-2"; label2 != want {
		t.Fatalf("second label %q, want %q", label2, want)
	}
	if _, err := st.Quarantine("bad db"); err == nil {
		t.Fatal("quarantining a name with no files succeeded")
	}
}
