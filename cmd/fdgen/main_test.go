package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fd "repro"
)

func TestRunGeneratesLoadableCSVs(t *testing.T) {
	for _, shape := range []string{"chain", "star", "cycle", "clique", "random", "dirty"} {
		dir := t.TempDir()
		var out bytes.Buffer
		args := []string{"-shape", shape, "-n", "3", "-m", "4", "-domain", "3", "-out", dir, "-seed", "7"}
		if err := run(args, &out); err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 3 {
			t.Fatalf("%s: wrote %d files, want 3", shape, len(entries))
		}
		// Every file loads back and the set forms a database whose full
		// disjunction computes.
		var rels []*fd.Relation
		for _, e := range entries {
			f, err := os.Open(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			rel, err := fd.ReadCSV(strings.TrimSuffix(e.Name(), ".csv"), f)
			f.Close()
			if err != nil {
				t.Fatalf("%s/%s: %v", shape, e.Name(), err)
			}
			if rel.Len() != 4 {
				t.Errorf("%s/%s: %d tuples, want 4", shape, e.Name(), rel.Len())
			}
			rels = append(rels, rel)
		}
		db, err := fd.NewDatabase(rels...)
		if err != nil {
			t.Fatal(err)
		}
		if err := fullDisjunction(db); err != nil {
			t.Fatalf("%s: FD over generated data failed: %v", shape, err)
		}
		if !strings.Contains(out.String(), "wrote") {
			t.Errorf("%s: no progress output", shape)
		}
	}
}

func TestRunSnapshotOutput(t *testing.T) {
	dir := t.TempDir()
	snap := filepath.Join(dir, "wl.fdb")
	var out bytes.Buffer
	args := []string{"-shape", "chain", "-n", "3", "-m", "5", "-domain", "3", "-seed", "9", "-snapshot", snap}
	if err := run(args, &out); err != nil {
		t.Fatal(err)
	}
	// Snapshot mode without an explicit -out writes no CSVs.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("wrote %d files, want just the snapshot", len(entries))
	}
	f, err := os.Open(snap)
	if err != nil {
		t.Fatal(err)
	}
	db, err := fd.ReadSnapshot(f)
	f.Close()
	if err != nil {
		t.Fatalf("generated snapshot does not load: %v", err)
	}
	if db.NumRelations() != 3 || db.Relation(0).Len() != 5 {
		t.Fatalf("snapshot shape: %d relations, %d tuples", db.NumRelations(), db.Relation(0).Len())
	}
	if err := fullDisjunction(db); err != nil {
		t.Fatalf("FD over snapshot-loaded data failed: %v", err)
	}
	if !strings.Contains(out.String(), "snapshot") {
		t.Errorf("no snapshot progress output: %s", out.String())
	}

	// The snapshot matches the CSV output of the identical generator
	// spec: same fingerprint as loading the CSVs.
	csvDir := t.TempDir()
	if err := run([]string{"-shape", "chain", "-n", "3", "-m", "5", "-domain", "3", "-seed", "9", "-out", csvDir}, &out); err != nil {
		t.Fatal(err)
	}
	entries, _ = os.ReadDir(csvDir)
	var rels []*fd.Relation
	for _, e := range entries {
		fh, err := os.Open(filepath.Join(csvDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		rel, err := fd.ReadCSV(strings.TrimSuffix(e.Name(), ".csv"), fh)
		fh.Close()
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	csvDB, err := fd.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	if csvDB.Fingerprint() != db.Fingerprint() {
		t.Fatalf("snapshot fingerprint %016x differs from CSV fingerprint %016x",
			db.Fingerprint(), csvDB.Fingerprint())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-shape", "bogus"}, &out); err == nil {
		t.Error("unknown shape accepted")
	}
	if err := run([]string{"-shape", "chain", "-n", "0"}, &out); err == nil {
		t.Error("zero relations accepted")
	}
}

// fullDisjunction drains an exact query over db.
func fullDisjunction(db *fd.Database) error {
	rs, err := fd.Open(context.Background(), db, fd.Query{})
	if err != nil {
		return err
	}
	defer rs.Close()
	for _, ok := rs.Next(); ok; _, ok = rs.Next() {
	}
	return rs.Err()
}
