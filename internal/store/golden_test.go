package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

// TestFormatGolden pins the on-disk bytes of both formats at version 1:
// the snapshot of the paper's tourist database (Table 1) and the row
// log that two appends to it leave behind. A codec change that moves a
// single byte changes a hash here; a layout change must bump the format
// version (docs/SNAPSHOT_FORMAT.md) and then re-pin these values.
func TestFormatGolden(t *testing.T) {
	const (
		wantSnapshot = "64110b069da16017ef139df32d5dddd3d7079b2426ced8f40ab084e1c3bd550c"
		wantLog      = "73f8035f11aae1ce493f1f55870e6ee41fa57fd235064e0c980d0d46dd8cc34d"
	)
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	db := workload.Tourist()
	if err := st.Save("tourist", db); err != nil {
		t.Fatal(err)
	}
	appends := []struct {
		rel    string
		tuples []relation.Tuple
	}{
		{"Climates", []relation.Tuple{
			{Label: "c4", Values: []relation.Value{relation.V("tropical"), relation.V("Fiji")}, Imp: 2.5, Prob: 0.75},
		}},
		{"Sites", []relation.Tuple{
			{Label: "s5", Values: []relation.Value{relation.V("Nadi"), relation.V("Fiji"), relation.V("reef")}, Imp: 1, Prob: 1},
			{Values: []relation.Value{relation.Null, relation.V(""), relation.V("Big Ben")}, Imp: 0.5, Prob: 0.25},
		}},
	}
	for _, a := range appends {
		if err := st.Append("tourist", a.rel, a.tuples, db.Fingerprint()); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range []struct{ path, want string }{
		{st.snapshotPath("tourist"), wantSnapshot},
		{st.logPath("tourist"), wantLog},
	} {
		raw, err := os.ReadFile(f.path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != f.want {
			t.Errorf("%s: sha256 %s, want %s", f.path, got, f.want)
		}
	}
	if _, replayed, err := st.Load("tourist"); err != nil || !replayed {
		t.Fatalf("Load = (%v, %v), want the two appends replayed", replayed, err)
	}
}
