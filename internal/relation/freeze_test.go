package relation_test

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/relation"
)

func freezeDB(t *testing.T) *relation.Database {
	t.Helper()
	r := relation.MustRelation("R", relation.MustSchema("A", "B"))
	r.MustAppend("r1", map[relation.Attribute]relation.Value{
		"A": relation.V("x"), "B": relation.V("y")})
	s := relation.MustRelation("S", relation.MustSchema("B", "C"))
	s.MustAppend("s1", map[relation.Attribute]relation.Value{
		"B": relation.V("y"), "C": relation.V("z")})
	return relation.MustDatabase(r, s)
}

// TestFreezeContract: mutation is allowed before the freeze and panics
// after it; appends fail after it; the mirror reflects the pre-freeze
// state.
func TestFreezeContract(t *testing.T) {
	db := freezeDB(t)
	if db.Frozen() {
		t.Fatal("database frozen before first query")
	}
	// Pre-freeze mutation through the accessor is visible to the mirror.
	db.Relation(0).MutateTuple(0, func(tp *relation.Tuple) {
		tp.Values[0] = relation.V("x2")
	})
	db.Freeze()
	if !db.Frozen() {
		t.Fatal("Frozen() = false after Freeze()")
	}
	if got := db.Dict().Datum(db.Code(relation.Ref{Rel: 0, Idx: 0}, 0)); got != "x2" {
		t.Fatalf("mirror holds %q, want pre-freeze mutation %q", got, "x2")
	}
	// Post-freeze mutation panics.
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("MutateTuple after freeze did not panic")
			}
			if !strings.Contains(r.(string), "froze") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		db.Relation(0).MutateTuple(0, func(tp *relation.Tuple) { tp.Imp = 2 })
	}()
	// Post-freeze appends error.
	if err := db.Relation(0).Append("r2", nil); err == nil {
		t.Fatal("Append after freeze succeeded")
	}
	if err := db.Relation(0).AppendTuple(relation.Tuple{
		Values: []relation.Value{relation.Null, relation.Null}, Prob: 1}); err == nil {
		t.Fatal("AppendTuple after freeze succeeded")
	}
}

// TestFreezeImpliedByQuery: the first predicate evaluation freezes.
func TestFreezeImpliedByQuery(t *testing.T) {
	db := freezeDB(t)
	db.JoinConsistent(relation.Ref{Rel: 0, Idx: 0}, relation.Ref{Rel: 1, Idx: 0})
	if !db.Frozen() {
		t.Fatal("first query did not freeze the database")
	}
}

// TestMutateTupleChecks: a mutation that leaves the tuple failing
// CheckTuple (here a NaN importance, with a value edited in the same
// call) panics with the check's message and leaves the tuple as it was.
func TestMutateTupleChecks(t *testing.T) {
	db := freezeDB(t)
	rel := db.Relation(0)
	before := *rel.Tuple(0)
	before.Values = append([]relation.Value(nil), before.Values...)
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("MutateTuple to a NaN importance did not panic")
			}
			if !strings.Contains(r.(string), "importance") {
				t.Fatalf("unexpected panic: %v", r)
			}
		}()
		rel.MutateTuple(0, func(tp *relation.Tuple) {
			tp.Values[0] = relation.V("changed")
			tp.Imp = math.NaN()
		})
	}()
	if got := *rel.Tuple(0); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed mutation left tuple %+v, want %+v", got, before)
	}
}
