package relation_test

import (
	"bytes"
	"testing"

	"repro/internal/relation"
)

// FuzzReadCSV holds relation.ReadCSV to three properties on arbitrary
// bytes: it never panics; every tuple it loads passes CheckTuple (so a
// NaN or infinite #imp, or a #prob outside [0,1], fails the load); and
// a loaded relation written by WriteCSV reads back to a database with
// the same fingerprint — labels, values, nulls, importances and
// probabilities all survive the text round trip. The seed corpus is
// testdata/fuzz/FuzzReadCSV; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzReadCSV -fuzztime 20s ./internal/relation
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		rel, err := relation.ReadCSV("R", bytes.NewReader(data))
		if err != nil {
			return
		}
		for i := 0; i < rel.Len(); i++ {
			if err := rel.CheckTuple(rel.Tuple(i)); err != nil {
				t.Fatalf("loaded tuple %d fails CheckTuple: %v", i, err)
			}
		}
		var buf bytes.Buffer
		if err := relation.WriteCSV(rel, &buf); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		back, err := relation.ReadCSV("R", bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reading back the written csv %q: %v", buf.Bytes(), err)
		}
		want, got := relation.MustDatabase(rel).Fingerprint(), relation.MustDatabase(back).Fingerprint()
		if got != want {
			t.Fatalf("fingerprint %016x after the WriteCSV round trip, %016x before; written csv %q", got, want, buf.Bytes())
		}
	})
}
