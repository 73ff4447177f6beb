package join

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

func mkRel(t *testing.T, name string, attrs []relation.Attribute, rows ...map[relation.Attribute]relation.Value) *relation.Relation {
	t.Helper()
	r := relation.MustRelation(name, relation.MustSchema(attrs...))
	for _, row := range rows {
		r.MustAppend("", row)
	}
	return r
}

func v(s string) relation.Value { return relation.V(s) }

// mkDB wraps relations into a database so their values receive
// dictionary codes.
func mkDB(t *testing.T, rels ...*relation.Relation) *relation.Database {
	t.Helper()
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// key builds the expected binary row key for the given datums ("" = ⊥)
// using the database dictionary — the test-side mirror of rowKey.
func key(t *testing.T, db *relation.Database, datums ...string) string {
	t.Helper()
	row := make([]int32, len(datums))
	for i, s := range datums {
		if s == "" {
			continue
		}
		c, ok := db.Dict().Code(s)
		if !ok {
			t.Fatalf("datum %q not in dictionary", s)
		}
		row[i] = c
	}
	return rowKey(row)
}

func TestNaturalJoinBasics(t *testing.T) {
	db := mkDB(t,
		mkRel(t, "A", []relation.Attribute{"X", "Y"},
			map[relation.Attribute]relation.Value{"X": v("1"), "Y": v("2")},
			map[relation.Attribute]relation.Value{"X": v("3"), "Y": v("4")},
		),
		mkRel(t, "B", []relation.Attribute{"Y", "Z"},
			map[relation.Attribute]relation.Value{"Y": v("2"), "Z": v("9")},
			map[relation.Attribute]relation.Value{"Y": v("7"), "Z": v("8")},
		))
	j := NaturalJoin(FromRelation(db, 0), FromRelation(db, 1))
	if j.Len() != 1 {
		t.Fatalf("join size = %d, want 1", j.Len())
	}
	want := []relation.Attribute{"X", "Y", "Z"}
	if !reflect.DeepEqual(j.Attrs, want) {
		t.Errorf("attrs = %v", j.Attrs)
	}
	if got := j.Render(0); !reflect.DeepEqual(got, []string{"1", "2", "9"}) {
		t.Errorf("row = %v", got)
	}
}

func TestNaturalJoinNullNeverMatches(t *testing.T) {
	db := mkDB(t,
		mkRel(t, "A", []relation.Attribute{"X", "Y"},
			map[relation.Attribute]relation.Value{"X": v("1")}, // Y = ⊥
		),
		mkRel(t, "B", []relation.Attribute{"Y", "Z"},
			map[relation.Attribute]relation.Value{"Z": v("9")}, // Y = ⊥
		))
	if j := NaturalJoin(FromRelation(db, 0), FromRelation(db, 1)); j.Len() != 0 {
		t.Errorf("⊥ = ⊥ must not match; join has %d rows", j.Len())
	}
}

func TestFullOuterJoinPreservesDangling(t *testing.T) {
	db := mkDB(t,
		mkRel(t, "A", []relation.Attribute{"X", "Y"},
			map[relation.Attribute]relation.Value{"X": v("1"), "Y": v("2")},
			map[relation.Attribute]relation.Value{"X": v("5"), "Y": v("6")},
		),
		mkRel(t, "B", []relation.Attribute{"Y", "Z"},
			map[relation.Attribute]relation.Value{"Y": v("2"), "Z": v("9")},
			map[relation.Attribute]relation.Value{"Y": v("7"), "Z": v("8")},
		))
	j := FullOuterJoin(FromRelation(db, 0), FromRelation(db, 1))
	if j.Len() != 3 { // 1 match + 1 dangling left + 1 dangling right
		t.Fatalf("outerjoin size = %d, want 3: %s", j.Len(), j)
	}
	keys := j.Keys()
	wantKeys := []string{
		key(t, db, "1", "2", "9"),
		key(t, db, "5", "6", ""),
		key(t, db, "", "7", "8"),
	}
	sort.Strings(wantKeys)
	if !reflect.DeepEqual(keys, wantKeys) {
		t.Errorf("keys = %q, want %q", keys, wantKeys)
	}
}

func TestRemoveSubsumed(t *testing.T) {
	// Codes stand in for values directly; no dictionary needed.
	p := &PaddedRelation{
		Attrs: []relation.Attribute{"X", "Y"},
		Rows: [][]int32{
			{1, 2},
			{1, relation.NullCode}, // subsumed by the first row
			{relation.NullCode, 3}, // kept
			{1, 2},                 // duplicate: one copy kept
			{relation.NullCode, 3}, // duplicate
		},
	}
	out := RemoveSubsumed(p)
	if len(out.Rows) != 2 {
		t.Fatalf("kept %d rows, want 2: %s", len(out.Rows), out)
	}
}

// TestOuterjoinMatchesIncrementalFD is the E10 equivalence: on
// γ-acyclic (chain and star) workloads the outerjoin sequence and
// INCREMENTALFD produce the same set of padded result tuples.
func TestOuterjoinMatchesIncrementalFD(t *testing.T) {
	gens := map[string]func(workload.Config) (*relation.Database, error){
		"chain": workload.Chain,
		"star":  workload.Star,
		// A clique sharing one attribute has a triangle connection
		// graph but a Berge-acyclic (hence γ-acyclic) hypergraph, so
		// the outerjoin method still applies.
		"clique1attr": workload.Clique,
	}
	for name, gen := range gens {
		for seed := int64(1); seed <= 8; seed++ {
			db, err := gen(workload.Config{
				Relations: 4, TuplesPerRelation: 5, Domain: 3, NullRate: 0.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			byJoin, err := FullDisjunction(db)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			sets, _, err := core.FullDisjunction(db, core.JCC, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			u := tupleset.NewUniverse(db)
			attrs := u.AllAttributes()
			seen := make(map[string]bool)
			var byCore []string
			for _, s := range sets {
				k := u.PadOver(s, attrs).Key()
				if !seen[k] {
					seen[k] = true
					byCore = append(byCore, k)
				}
			}
			sort.Strings(byCore)
			if !reflect.DeepEqual(byJoin.Keys(), byCore) {
				t.Errorf("%s seed %d: outerjoin FD and IncrementalFD disagree\n join: %q\n core: %q",
					name, seed, byJoin.Keys(), byCore)
			}
		}
	}
}

func TestFullDisjunctionRejectsNonTree(t *testing.T) {
	db, err := workload.Cycle(workload.Config{
		Relations: 4, TuplesPerRelation: 2, Domain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FullDisjunction(db); err == nil {
		t.Error("cycle schema accepted by the outerjoin method")
	}
	// The tourist schema is a triangle: also rejected, even though the
	// hypergraph is α-acyclic, because our baseline requires a tree
	// connection graph.
	if _, err := FullDisjunction(workload.Tourist()); err == nil {
		t.Error("triangle connection graph accepted")
	}
}

func TestKeysCollapseDuplicates(t *testing.T) {
	p := &PaddedRelation{
		Attrs: []relation.Attribute{"X"},
		Rows:  [][]int32{{1}, {1}, {2}},
	}
	if got := p.Keys(); len(got) != 2 {
		t.Errorf("keys = %v", got)
	}
}
