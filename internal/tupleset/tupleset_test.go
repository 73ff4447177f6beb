package tupleset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/relation"
	"repro/internal/workload"
)

// touristRefs resolves the paper's tuple labels to refs.
func touristRefs(t *testing.T, db *relation.Database) map[string]relation.Ref {
	t.Helper()
	out := make(map[string]relation.Ref)
	db.ForEachRef(func(ref relation.Ref) bool {
		out[db.Label(ref)] = ref
		return true
	})
	return out
}

func TestSetBasics(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	s := u.Singleton(refs["c1"])
	if s.Len() != 1 || !s.Has(refs["c1"]) || s.Empty() {
		t.Error("singleton malformed")
	}
	s.Add(refs["a1"])
	if s.Len() != 2 || !s.HasRelation(1) {
		t.Error("Add failed")
	}
	if got := s.Format(db); got != "{c1, a1}" {
		t.Errorf("Format = %q", got)
	}
	member, ok := s.Member(1)
	if !ok || member != refs["a1"] {
		t.Errorf("Member(1) = %v,%v", member, ok)
	}
	if _, ok := s.Member(2); ok {
		t.Error("Member(2) should be absent")
	}
	clone := s.Clone()
	clone.Add(refs["s1"])
	if s.Len() != 2 {
		t.Error("Clone must be independent")
	}
	clone.Remove(2)
	if clone.Len() != 2 || clone.HasRelation(2) {
		t.Error("Remove failed")
	}
	clone.Remove(2) // removing absent member is a no-op
	if clone.Len() != 2 {
		t.Error("double Remove changed count")
	}
}

func TestSetContainsEqualKey(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	small := u.FromRefs(refs["c1"], refs["a2"])
	big := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
	other := u.FromRefs(refs["c1"], refs["a1"])

	if !big.ContainsAll(small) {
		t.Error("big must contain small")
	}
	if small.ContainsAll(big) {
		t.Error("small must not contain big")
	}
	if big.ContainsAll(other) {
		t.Error("big must not contain {c1,a1}")
	}
	if !big.Equal(big.Clone()) || small.Equal(big) {
		t.Error("Equal misbehaves")
	}
	if big.Key() == small.Key() || big.Key() != big.Clone().Key() {
		t.Error("Key must be canonical")
	}
}

func TestFromRefsPanicsOnConflict(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)
	defer func() {
		if recover() == nil {
			t.Error("FromRefs with two tuples of one relation must panic")
		}
	}()
	u.FromRefs(refs["c1"], refs["c2"])
}

func TestJCCTouristExamples(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	// From Example 2.2: {c1, s2} is JCC but cannot absorb a2 because s2
	// has a null City.
	c1s2 := u.FromRefs(refs["c1"], refs["s2"])
	if !u.JCC(c1s2) {
		t.Error("{c1,s2} must be JCC")
	}
	if u.JCCWithTuple(c1s2, refs["a2"], nil) {
		t.Error("{c1,s2} must not join a2 (null City in s2)")
	}
	if u.ConsistentWith(c1s2, refs["a2"], nil) {
		t.Error("a2 inconsistent with s2 on City")
	}
	// {c1, a2, s1} is the natural-join tuple set of Table 2.
	full := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
	if !u.JCC(full) {
		t.Error("{c1,a2,s1} must be JCC")
	}
	// Two tuples of one relation are never a valid set.
	bad := u.NewSet().Add(refs["c1"])
	if u.ConsistentWith(bad, refs["c2"], nil) {
		t.Error("c2 must be inconsistent with {c1} (same relation)")
	}
	// Empty set is not JCC and not connected.
	if u.JCC(u.NewSet()) || u.Connected(u.NewSet()) {
		t.Error("empty set must not be JCC")
	}
	// Singletons are JCC.
	if !u.JCC(u.Singleton(refs["a3"])) {
		t.Error("singleton must be JCC")
	}
}

func TestMaximalSubsetWithTouristTrace(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	// Example 4.1: from T = {c1, a1}, reaching a2 yields T' = {c1, a2};
	// reaching s1 yields {c1, s1}; reaching a3 yields {a3} (no Climates
	// tuple); reaching s3 yields {s3}.
	T := u.FromRefs(refs["c1"], refs["a1"])
	cases := []struct {
		tb   string
		want string
	}{
		{"a2", "{c1, a2}"},
		{"s1", "{c1, s1}"},
		{"a3", "{a3}"},
		{"s3", "{s3}"},
		{"s2", "{c1, s2}"},
	}
	for _, c := range cases {
		got := u.MaximalSubsetWith(T, refs[c.tb], nil).Format(db)
		if got != c.want {
			t.Errorf("MaximalSubsetWith(T, %s) = %s, want %s", c.tb, got, c.want)
		}
	}
}

func TestMaximalSubsetDropsDisconnected(t *testing.T) {
	// Chain R0-R1-R2: dropping the middle tuple must also drop the far
	// tuple (connected component of tb).
	r0 := relation.MustRelation("R0", relation.MustSchema("A", "B"))
	r0.MustAppend("x0", map[relation.Attribute]relation.Value{"A": relation.V("a"), "B": relation.V("b")})
	r1 := relation.MustRelation("R1", relation.MustSchema("B", "C"))
	r1.MustAppend("y0", map[relation.Attribute]relation.Value{"B": relation.V("b"), "C": relation.V("c")})
	r2 := relation.MustRelation("R2", relation.MustSchema("C", "D"))
	r2.MustAppend("z0", map[relation.Attribute]relation.Value{"C": relation.V("c"), "D": relation.V("d")})
	r2.MustAppend("z1", map[relation.Attribute]relation.Value{"C": relation.V("X"), "D": relation.V("d")})
	db := relation.MustDatabase(r0, r1, r2)
	u := NewUniverse(db)

	T := u.FromRefs(relation.Ref{Rel: 0, Idx: 0}, relation.Ref{Rel: 1, Idx: 0}, relation.Ref{Rel: 2, Idx: 0})
	// tb = z1 conflicts with y0 on C and replaces z0; x0 stays connected
	// through... nothing: y0 is dropped (inconsistent), so x0 must drop
	// too (R0 not adjacent to R2).
	got := u.MaximalSubsetWith(T, relation.Ref{Rel: 2, Idx: 1}, nil)
	if got.Format(db) != "{z1}" {
		t.Errorf("got %s, want {z1}", got.Format(db))
	}
	// tb already a member: identity.
	same := u.MaximalSubsetWith(T, relation.Ref{Rel: 1, Idx: 0}, nil)
	if !same.Equal(T) {
		t.Errorf("got %s, want T itself", same.Format(db))
	}
}

func TestUnionJCC(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	a := u.FromRefs(refs["c1"], refs["a2"])
	b := u.FromRefs(refs["c1"], refs["s1"])
	if !u.UnionJCC(a, b, nil) {
		t.Error("{c1,a2} ∪ {c1,s1} must be JCC")
	}
	un := u.Union(a, b)
	if un.Format(db) != "{c1, a2, s1}" {
		t.Errorf("union = %s", un.Format(db))
	}
	// Conflicting members of one relation.
	c := u.FromRefs(refs["c2"], refs["s3"])
	if u.UnionJCC(a, c, nil) {
		t.Error("sets with different Climates tuples must not merge")
	}
	// Join-inconsistent across sets: {c1,s2} (null City) with {a2}.
	d := u.FromRefs(refs["c1"], refs["s2"])
	e := u.FromRefs(refs["a2"], refs["c1"])
	if u.UnionJCC(d, e, nil) {
		t.Error("s2 and a2 are join inconsistent (null City)")
	}
}

func TestUnionPanicsOnConflict(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)
	defer func() {
		if recover() == nil {
			t.Error("Union with conflicting members must panic")
		}
	}()
	u.Union(u.Singleton(refs["c1"]), u.Singleton(refs["c2"]))
}

// TestUnionJCCMatchesFullCheck property-tests UnionJCC (which assumes
// its arguments are JCC) against the assumption-free JCC predicate on
// random JCC pairs.
func TestUnionJCCMatchesFullCheck(t *testing.T) {
	db, err := workload.Random(workload.Config{
		Relations: 4, TuplesPerRelation: 5, Domain: 3, NullRate: 0.2, Seed: 17}, 0.4)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(db)
	rng := rand.New(rand.NewSource(99))

	randomJCC := func() *Set {
		for {
			s := u.NewSet()
			// Random greedy growth.
			db.ForEachRef(func(ref relation.Ref) bool {
				if rng.Intn(2) == 0 && u.JCCWithTuple(s, ref, nil) {
					s.Add(ref)
				}
				return true
			})
			if s.Len() > 0 {
				return s
			}
		}
	}
	for trial := 0; trial < 300; trial++ {
		a, b := randomJCC(), randomJCC()
		got := u.UnionJCC(a, b, nil)
		// Reference: build union unless relation conflict, then full JCC.
		conflict := false
		for r := 0; r < db.NumRelations(); r++ {
			ra, okA := a.Member(r)
			rb, okB := b.Member(r)
			if okA && okB && ra != rb {
				conflict = true
			}
		}
		want := false
		if !conflict {
			want = u.JCC(u.Union(a, b))
		}
		if got != want {
			t.Fatalf("UnionJCC(%s, %s) = %v, want %v", a.Format(db), b.Format(db), got, want)
		}
	}
}

// TestMaximalSubsetProperties property-tests footnote 3's
// characterisation: T' contains tb, T' ⊆ T ∪ {tb}, T' is JCC, and no
// tuple of T ∪ {tb} outside T' can be added while keeping T' JCC
// (maximality), using testing/quick to drive tuple choices.
func TestMaximalSubsetProperties(t *testing.T) {
	db, err := workload.Random(workload.Config{
		Relations: 4, TuplesPerRelation: 4, Domain: 3, NullRate: 0.25, Seed: 23}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(db)
	total := db.NumTuples()

	refAt := func(k int) relation.Ref {
		k = ((k % total) + total) % total
		var out relation.Ref
		i := 0
		db.ForEachRef(func(ref relation.Ref) bool {
			if i == k {
				out = ref
				return false
			}
			i++
			return true
		})
		return out
	}

	f := func(seedK int, grow []bool, tbK int) bool {
		// Build a JCC set T greedily from a seed tuple.
		T := u.Singleton(refAt(seedK))
		gi := 0
		db.ForEachRef(func(ref relation.Ref) bool {
			take := gi < len(grow) && grow[gi]
			gi++
			if take && !T.Has(ref) && u.JCCWithTuple(T, ref, nil) {
				T.Add(ref)
			}
			return true
		})
		tb := refAt(tbK)
		tp := u.MaximalSubsetWith(T, tb, nil)
		if !tp.Has(tb) {
			return false
		}
		if !u.JCC(tp) {
			return false
		}
		// T' ⊆ T ∪ {tb}.
		for _, ref := range tp.Refs() {
			if ref != tb && !T.Has(ref) {
				return false
			}
		}
		// Maximality: no other tuple of T ∪ {tb} extends T'.
		for _, ref := range T.Refs() {
			if tp.Has(ref) || tp.HasRelation(int(ref.Rel)) {
				continue
			}
			if u.JCCWithTuple(tp, ref, nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

func TestPaddedTourist(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)

	// Row 2 of Table 2: {c1, a2, s1} joins to
	// (Canada, London, diverse, Ramada, 3, Air Show).
	s := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
	p := u.PadOver(s, u.AllAttributes())
	want := map[relation.Attribute]string{
		"Country": "Canada", "City": "London", "Climate": "diverse",
		"Hotel": "Ramada", "Stars": "3", "Site": "Air Show",
	}
	for i, a := range p.Attrs {
		if w, ok := want[a]; ok {
			if p.Values[i].Datum() != w {
				t.Errorf("%s = %v, want %s", a, p.Values[i], w)
			}
		}
	}
	// Row 3 of Table 2: {c1, s2} has ⊥ City, Hotel, Stars.
	s2 := u.FromRefs(refs["c1"], refs["s2"])
	p2 := u.PadOver(s2, u.AllAttributes())
	for i, a := range p2.Attrs {
		switch a {
		case "City", "Hotel", "Stars":
			if !p2.Values[i].IsNull() {
				t.Errorf("%s should be ⊥, got %v", a, p2.Values[i])
			}
		case "Site":
			if p2.Values[i].Datum() != "Mount Logan" {
				t.Errorf("Site = %v", p2.Values[i])
			}
		}
	}
	// Subsumption: row {c1,a2,s1} subsumes the padded {c1,s1}... over
	// the same attribute universe.
	small := u.PadOver(u.FromRefs(refs["c1"], refs["s1"]), u.AllAttributes())
	if !p.Subsumes(small) {
		t.Error("{c1,a2,s1} must subsume {c1,s1}")
	}
	if small.Subsumes(p) {
		t.Error("{c1,s1} must not subsume {c1,a2,s1}")
	}
	if p.Key() == p2.Key() {
		t.Error("distinct padded tuples share a key")
	}
	if p.String() == "" || p2.String() == "" {
		t.Error("String must render")
	}
}

func TestSortSetsDeterministic(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)
	a := u.FromRefs(refs["c2"], refs["s3"])
	b := u.FromRefs(refs["c1"], refs["a1"])
	c := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
	sets := []*Set{a, b, c}
	SortSets(db, sets)
	got := []string{sets[0].Format(db), sets[1].Format(db), sets[2].Format(db)}
	want := []string{"{c1, a1}", "{c1, a2, s1}", "{c2, s3}"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sorted = %v", got)
	}
}

func TestRelationBitsAndRefs(t *testing.T) {
	db := workload.Tourist()
	u := NewUniverse(db)
	refs := touristRefs(t, db)
	s := u.FromRefs(refs["c2"], refs["s3"])
	bits := s.RelationBits()
	if len(bits) != 1 || bits[0] != 0b101 {
		t.Errorf("relation bits = %b", bits)
	}
	rs := s.Refs()
	if len(rs) != 2 || rs[0] != refs["c2"] || rs[1] != refs["s3"] {
		t.Errorf("refs = %v", rs)
	}
}
