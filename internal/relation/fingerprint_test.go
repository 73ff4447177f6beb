package relation

import "testing"

// fingerprintDB builds a tiny two-relation database for the
// fingerprint tests.
func fingerprintDB(t *testing.T) *Database {
	t.Helper()
	r1 := MustRelation("R1", MustSchema("A", "B"))
	r1.MustAppend("t1", map[Attribute]Value{"A": V("a"), "B": V("b")})
	r2 := MustRelation("R2", MustSchema("B", "C"))
	r2.MustAppend("t2", map[Attribute]Value{"B": V("b"), "C": V("c")})
	db, err := NewDatabase(r1, r2)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestFingerprintDeterministic checks that identically-loaded databases
// fingerprint equally and that any content difference — values, labels,
// imps — changes the fingerprint.
func TestFingerprintDeterministic(t *testing.T) {
	a, b := fingerprintDB(t), fingerprintDB(t)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identically-loaded databases should share a fingerprint")
	}

	value := fingerprintDB(t)
	value.Relation(0).MutateTuple(0, func(tp *Tuple) { tp.Values[0] = V("z") })
	if value.Fingerprint() == a.Fingerprint() {
		t.Error("value change did not alter the fingerprint")
	}

	label := fingerprintDB(t)
	label.Relation(0).MutateTuple(0, func(tp *Tuple) { tp.Label = "other" })
	if label.Fingerprint() == a.Fingerprint() {
		t.Error("label change did not alter the fingerprint")
	}

	imp := fingerprintDB(t)
	imp.Relation(0).MutateTuple(0, func(tp *Tuple) { tp.Imp = 7 })
	if imp.Fingerprint() == a.Fingerprint() {
		t.Error("importance change did not alter the fingerprint")
	}
}
