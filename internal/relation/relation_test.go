package relation

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueBasics(t *testing.T) {
	if !Null.IsNull() {
		t.Error("Null must report IsNull")
	}
	if Null.String() != NullToken {
		t.Errorf("Null.String() = %q, want %q", Null.String(), NullToken)
	}
	v := V("x")
	if v.IsNull() {
		t.Error("V(x) must be non-null")
	}
	if v.Datum() != "x" {
		t.Errorf("Datum = %q", v.Datum())
	}
	var zero Value
	if !zero.IsNull() {
		t.Error("zero Value must be null")
	}
	if V("").IsNull() {
		t.Error("empty datum is not null")
	}
}

func TestValueJoinsWith(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{V("x"), V("x"), true},
		{V("x"), V("y"), false},
		{V("x"), Null, false},
		{Null, V("x"), false},
		{Null, Null, false}, // the paper: ⊥ never joins, even with ⊥
		{V(""), V(""), true},
	}
	for _, c := range cases {
		if got := c.a.JoinsWith(c.b); got != c.want {
			t.Errorf("JoinsWith(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestValueJoinsWithSymmetric(t *testing.T) {
	f := func(a, b string, an, bn bool) bool {
		va, vb := V(a), V(b)
		if an {
			va = Null
		}
		if bn {
			vb = Null
		}
		return va.JoinsWith(vb) == vb.JoinsWith(va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaSortedPositions(t *testing.T) {
	s := MustSchema("City", "Country", "Hotel", "Stars")
	wantOrder := []Attribute{"City", "Country", "Hotel", "Stars"}
	for i, a := range wantOrder {
		if s.At(i) != a {
			t.Errorf("At(%d) = %s, want %s", i, s.At(i), a)
		}
		p, ok := s.Position(a)
		if !ok || p != i {
			t.Errorf("Position(%s) = %d,%v", a, p, ok)
		}
	}
	// Input order must not matter.
	s2 := MustSchema("Stars", "Hotel", "Country", "City")
	if !s.Equal(s2) {
		t.Error("schemas with same attributes in different input order must be equal")
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(); err == nil {
		t.Error("empty schema accepted")
	}
	if _, err := NewSchema("A", "A"); err == nil {
		t.Error("duplicate attribute accepted")
	}
	if _, err := NewSchema("A", ""); err == nil {
		t.Error("empty attribute name accepted")
	}
}

func TestSchemaSharedConnected(t *testing.T) {
	climates := MustSchema("Country", "Climate")
	accommodations := MustSchema("Country", "City", "Hotel", "Stars")
	sites := MustSchema("Country", "City", "Site")
	disjoint := MustSchema("X", "Y")

	if got := climates.Shared(accommodations); len(got) != 1 || got[0] != "Country" {
		t.Errorf("Shared = %v", got)
	}
	if got := accommodations.Shared(sites); len(got) != 2 || got[0] != "City" || got[1] != "Country" {
		t.Errorf("Shared = %v", got)
	}
	if !climates.Connected(sites) {
		t.Error("Climates and Sites share Country")
	}
	if climates.Connected(disjoint) {
		t.Error("disjoint schemas must not be connected")
	}
	u := climates.Union(sites)
	if u.Len() != 4 {
		t.Errorf("union width = %d, want 4", u.Len())
	}
	for _, a := range []Attribute{"Country", "Climate", "City", "Site"} {
		if !u.Has(a) {
			t.Errorf("union missing %s", a)
		}
	}
}

func TestSchemaString(t *testing.T) {
	s := MustSchema("B", "A")
	if s.String() != "(A, B)" {
		t.Errorf("String = %q", s.String())
	}
}

func TestRelationAppendAndAccess(t *testing.T) {
	r := MustRelation("R", MustSchema("A", "B"))
	if err := r.Append("t1", map[Attribute]Value{"A": V("1")}); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("Len = %d", r.Len())
	}
	v, ok := r.Value(0, "A")
	if !ok || v != V("1") {
		t.Errorf("Value(0,A) = %v,%v", v, ok)
	}
	v, ok = r.Value(0, "B")
	if !ok || !v.IsNull() {
		t.Errorf("Value(0,B) = %v,%v, want null", v, ok)
	}
	if _, ok := r.Value(0, "Z"); ok {
		t.Error("unknown attribute accepted")
	}
	if err := r.Append("t2", map[Attribute]Value{"Z": V("1")}); err == nil {
		t.Error("append with unknown attribute accepted")
	}
}

func TestRelationAppendTupleValidation(t *testing.T) {
	r := MustRelation("R", MustSchema("A", "B"))
	if err := r.AppendTuple(Tuple{Values: []Value{V("1")}}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := r.AppendTuple(Tuple{Values: []Value{V("1"), V("2")}, Prob: 2}); err == nil {
		t.Error("probability > 1 accepted")
	}
	if err := r.AppendTuple(Tuple{Values: []Value{V("1"), V("2")}, Prob: math.NaN()}); err == nil {
		t.Error("NaN probability accepted")
	}
	for _, imp := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if err := r.AppendTuple(Tuple{Values: []Value{V("1"), V("2")}, Prob: 1, Imp: imp}); err == nil {
			t.Errorf("importance %v accepted", imp)
		}
	}
	if err := r.AppendTuple(Tuple{Values: []Value{V("1"), V("2")}, Prob: 0.5, Imp: 3}); err != nil {
		t.Error(err)
	}
}

func TestRelationErrors(t *testing.T) {
	if _, err := NewRelation("", MustSchema("A")); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewRelation("R", nil); err == nil {
		t.Error("nil schema accepted")
	}
}

func TestRelationSize(t *testing.T) {
	r := MustRelation("R", MustSchema("A", "B", "C"))
	r.MustAppend("", map[Attribute]Value{"A": V("1")})
	r.MustAppend("", map[Attribute]Value{"B": V("2")})
	if got := r.Size(); got != 2*(1+3) {
		t.Errorf("Size = %d, want 8", got)
	}
}

func TestDatabaseStructure(t *testing.T) {
	r1 := MustRelation("R1", MustSchema("A", "B"))
	r1.MustAppend("x", map[Attribute]Value{"A": V("1"), "B": V("2")})
	r2 := MustRelation("R2", MustSchema("B", "C"))
	r2.MustAppend("y", map[Attribute]Value{"B": V("2"), "C": V("3")})
	r3 := MustRelation("R3", MustSchema("C", "D"))
	r3.MustAppend("z", map[Attribute]Value{"C": V("3"), "D": V("4")})
	db := MustDatabase(r1, r2, r3)

	if db.NumRelations() != 3 {
		t.Fatalf("NumRelations = %d", db.NumRelations())
	}
	if !db.ConnectedRelations(0, 1) || !db.ConnectedRelations(1, 2) {
		t.Error("adjacent chain relations must be connected")
	}
	if db.ConnectedRelations(0, 2) {
		t.Error("R1 and R3 share no attribute")
	}
	if db.ConnectedRelations(1, 1) {
		t.Error("a relation is not connected to itself")
	}
	sp := db.SharedPositions(0, 1)
	if len(sp) != 1 {
		t.Fatalf("SharedPositions(0,1) = %v", sp)
	}
	// B is at position 1 in R1's sorted schema (A,B) and 0 in R2's (B,C).
	if sp[0].P1 != 1 || sp[0].P2 != 0 {
		t.Errorf("shared position pair = %+v", sp[0])
	}
	// Reverse orientation.
	sp = db.SharedPositions(1, 0)
	if sp[0].P1 != 0 || sp[0].P2 != 1 {
		t.Errorf("reversed pair = %+v", sp[0])
	}
	if idx, ok := db.RelationIndex("R2"); !ok || idx != 1 {
		t.Errorf("RelationIndex(R2) = %d,%v", idx, ok)
	}
	if _, ok := db.RelationIndex("nope"); ok {
		t.Error("unknown relation found")
	}
}

func TestDatabaseJoinConsistent(t *testing.T) {
	r1 := MustRelation("R1", MustSchema("A", "B"))
	r1.MustAppend("t0", map[Attribute]Value{"A": V("1"), "B": V("2")})
	r1.MustAppend("t1", map[Attribute]Value{"A": V("9")}) // B is null
	r2 := MustRelation("R2", MustSchema("B", "C"))
	r2.MustAppend("u0", map[Attribute]Value{"B": V("2"), "C": V("3")})
	r2.MustAppend("u1", map[Attribute]Value{"B": V("7"), "C": V("3")})
	db := MustDatabase(r1, r2)

	jc := func(a, b Ref) bool { return db.JoinConsistent(a, b) }
	t0 := Ref{Rel: 0, Idx: 0}
	t1 := Ref{Rel: 0, Idx: 1}
	u0 := Ref{Rel: 1, Idx: 0}
	u1 := Ref{Rel: 1, Idx: 1}
	if !jc(t0, u0) {
		t.Error("t0/u0 agree on B")
	}
	if jc(t0, u1) {
		t.Error("t0/u1 disagree on B")
	}
	if jc(t1, u0) {
		t.Error("null B must not join")
	}
	if jc(t0, t1) {
		t.Error("distinct tuples of one relation are never join consistent")
	}
	if !jc(t0, t0) {
		t.Error("a tuple is consistent with itself")
	}
	// Symmetry.
	if jc(t0, u0) != jc(u0, t0) || jc(t1, u0) != jc(u0, t1) {
		t.Error("JoinConsistent must be symmetric")
	}
}

func TestDatabaseErrors(t *testing.T) {
	if _, err := NewDatabase(); err == nil {
		t.Error("empty database accepted")
	}
	r := MustRelation("R", MustSchema("A"))
	if _, err := NewDatabase(r, nil); err == nil {
		t.Error("nil relation accepted")
	}
	r2 := MustRelation("R", MustSchema("B"))
	if _, err := NewDatabase(r, r2); err == nil {
		t.Error("duplicate relation names accepted")
	}
}

func TestForEachRefOrderAndStop(t *testing.T) {
	r1 := MustRelation("R1", MustSchema("A"))
	r1.MustAppend("", map[Attribute]Value{"A": V("1")})
	r1.MustAppend("", map[Attribute]Value{"A": V("2")})
	r2 := MustRelation("R2", MustSchema("A"))
	r2.MustAppend("", map[Attribute]Value{"A": V("3")})
	db := MustDatabase(r1, r2)

	var got []Ref
	db.ForEachRef(func(ref Ref) bool {
		got = append(got, ref)
		return true
	})
	want := []Ref{{0, 0}, {0, 1}, {1, 0}}
	if len(got) != len(want) {
		t.Fatalf("visited %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("order[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	count := 0
	db.ForEachRef(func(Ref) bool { count++; return count < 2 })
	if count != 2 {
		t.Errorf("early stop visited %d", count)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	r := MustRelation("R", MustSchema("A", "B"))
	r.MustAppend("t1", map[Attribute]Value{"A": V("hello"), "B": V("world")})
	if err := r.AppendTuple(Tuple{Label: "t2", Values: []Value{V("only-a"), Null}, Imp: 2.5, Prob: 0.75}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(r, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCSV("R", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Len() != 2 {
		t.Fatalf("round trip len = %d", back.Len())
	}
	if !back.Schema().Equal(r.Schema()) {
		t.Error("schema changed in round trip")
	}
	t2 := back.Tuple(1)
	if t2.Label != "t2" || t2.Imp != 2.5 || t2.Prob != 0.75 {
		t.Errorf("metadata lost: %+v", t2)
	}
	if !t2.Values[1].IsNull() {
		t.Error("null value lost in round trip")
	}
	if t2.Values[0] != V("only-a") {
		t.Errorf("value changed: %v", t2.Values[0])
	}
}

func TestReadCSVValidation(t *testing.T) {
	cases := map[string]string{
		"empty":      "",
		"ragged row": "A,B\n1",
		"bad imp":    "#imp,A\nxx,1",
		"bad prob":   "#prob,A\n1.5x,1",
		"big prob":   "#prob,A\n1.5,1",
	}
	for name, in := range cases {
		if _, err := ReadCSV("R", strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	// Empty cells and the null token both decode to ⊥.
	r, err := ReadCSV("R", strings.NewReader("A,B\n,"+NullToken+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Tuple(0).Values[0].IsNull() || !r.Tuple(0).Values[1].IsNull() {
		t.Error("null decoding failed")
	}
}

// TestReadCSVRefusesNonFiniteImp checks that a #imp cell strconv
// parses to NaN or ±Inf fails the load with an error naming its row.
func TestReadCSVRefusesNonFiniteImp(t *testing.T) {
	for _, imp := range []string{"NaN", "Inf", "+Inf", "-Inf", "infinity"} {
		in := "#label,#imp,A\nok,4,x\nbad," + imp + ",y\n"
		_, err := ReadCSV("R", strings.NewReader(in))
		if err == nil || !strings.Contains(err.Error(), "row 3") || !strings.Contains(err.Error(), "importance") {
			t.Errorf("#imp %s: ReadCSV = %v, want an importance error naming row 3", imp, err)
		}
	}
}
