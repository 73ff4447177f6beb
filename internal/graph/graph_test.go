package graph

import (
	"testing"

	"repro/internal/relation"
	"repro/internal/workload"
)

func chainDB(t *testing.T, n int) *relation.Database {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: n, TuplesPerRelation: 1, Domain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func starDB(t *testing.T, n int) *relation.Database {
	t.Helper()
	db, err := workload.Star(workload.Config{
		Relations: n, TuplesPerRelation: 1, Domain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func cycleDB(t *testing.T, n int) *relation.Database {
	t.Helper()
	db, err := workload.Cycle(workload.Config{
		Relations: n, TuplesPerRelation: 1, Domain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestConnectedTourist(t *testing.T) {
	c := NewConnection(workload.Tourist())
	if !c.Connected() {
		t.Error("tourist database must be connected")
	}
	if c.N() != 3 {
		t.Errorf("N = %d", c.N())
	}
	// All three relations share Country: a triangle.
	if c.IsTree() || c.IsChain() {
		t.Error("tourist connection graph is a triangle, not a tree")
	}
}

func TestShapes(t *testing.T) {
	chain := NewConnection(chainDB(t, 5))
	if !chain.Connected() || !chain.IsTree() || !chain.IsChain() {
		t.Error("chain must be a connected chain tree")
	}
	star := NewConnection(starDB(t, 5))
	if !star.Connected() || !star.IsTree() {
		t.Error("star must be a connected tree")
	}
	if star.IsChain() {
		t.Error("a 5-relation star is not a chain")
	}
	cycle := NewConnection(cycleDB(t, 5))
	if !cycle.Connected() {
		t.Error("cycle must be connected")
	}
	if cycle.IsTree() || cycle.IsChain() {
		t.Error("cycle is not a tree")
	}
}

func TestDisconnected(t *testing.T) {
	r1 := relation.MustRelation("R1", relation.MustSchema("A"))
	r1.MustAppend("", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	r2 := relation.MustRelation("R2", relation.MustSchema("B"))
	r2.MustAppend("", map[relation.Attribute]relation.Value{"B": relation.V("1")})
	c := NewConnection(relation.MustDatabase(r1, r2))
	if c.Connected() {
		t.Error("disjoint relations must not be connected")
	}
	comps := c.Components()
	if len(comps) != 2 {
		t.Errorf("components = %v", comps)
	}
}

func TestComponentOf(t *testing.T) {
	// Chain 0-1-2-3-4 with member mask {0,1,3,4}: component of 0 is
	// {0,1}; component of 3 is {3,4}.
	c := NewConnection(chainDB(t, 5))
	members := []bool{true, true, false, true, true}
	comp := c.ComponentOf(0, members)
	want := []bool{true, true, false, false, false}
	for i := range want {
		if comp[i] != want[i] {
			t.Errorf("ComponentOf(0)[%d] = %v, want %v", i, comp[i], want[i])
		}
	}
	comp = c.ComponentOf(3, members)
	want = []bool{false, false, false, true, true}
	for i := range want {
		if comp[i] != want[i] {
			t.Errorf("ComponentOf(3)[%d] = %v, want %v", i, comp[i], want[i])
		}
	}
	// Start not a member: empty component.
	comp = c.ComponentOf(2, members)
	for i, in := range comp {
		if in {
			t.Errorf("non-member start: vertex %d included", i)
		}
	}
}

func TestSubsetConnected(t *testing.T) {
	c := NewConnection(chainDB(t, 5))
	cases := []struct {
		mask []bool
		want bool
	}{
		{[]bool{true, true, true, false, false}, true},
		{[]bool{true, false, true, false, false}, false},
		{[]bool{false, false, false, false, true}, true},
		{[]bool{false, false, false, false, false}, false},
	}
	for _, cse := range cases {
		if got := c.SubsetConnected(cse.mask); got != cse.want {
			t.Errorf("SubsetConnected(%v) = %v, want %v", cse.mask, got, cse.want)
		}
	}
}

func TestTreeOrder(t *testing.T) {
	c := NewConnection(starDB(t, 4))
	order, ok := c.TreeOrder(0)
	if !ok {
		t.Fatal("star must have a tree order")
	}
	if len(order) != 4 || order[0] != 0 {
		t.Errorf("order = %v", order)
	}
	seen := map[int]bool{order[0]: true}
	for _, v := range order[1:] {
		joined := false
		for _, nb := range c.Adjacent(v) {
			if seen[nb] {
				joined = true
			}
		}
		if !joined {
			t.Errorf("vertex %d appears before any neighbour", v)
		}
		seen[v] = true
	}
	cyc := NewConnection(cycleDB(t, 4))
	if _, ok := cyc.TreeOrder(0); ok {
		t.Error("cycle must not have a tree order")
	}
}

func TestBergeAcyclic(t *testing.T) {
	if !BergeAcyclic(chainDB(t, 6)) {
		t.Error("chain must be Berge-acyclic")
	}
	if !BergeAcyclic(starDB(t, 6)) {
		t.Error("star must be Berge-acyclic")
	}
	if BergeAcyclic(cycleDB(t, 4)) {
		t.Error("cycle must not be Berge-acyclic")
	}
	// The tourist triangle: Country in three relations plus City in
	// two creates an incidence cycle (Accommodations–Country–Sites–
	// City–Accommodations).
	if BergeAcyclic(workload.Tourist()) {
		t.Error("tourist schema must not be Berge-acyclic")
	}
	// One attribute shared by many relations is a star in the
	// incidence graph: Berge-acyclic even though the connection graph
	// is a clique.
	clique, err := workload.Clique(workload.Config{
		Relations: 4, TuplesPerRelation: 1, Domain: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !BergeAcyclic(clique) {
		t.Error("single-attribute clique must be Berge-acyclic")
	}
	// Two relations sharing two attributes form a multi-edge: cyclic.
	r1 := relation.MustRelation("R1", relation.MustSchema("A", "B"))
	r1.MustAppend("", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	r2 := relation.MustRelation("R2", relation.MustSchema("A", "B"))
	r2.MustAppend("", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	if BergeAcyclic(relation.MustDatabase(r1, r2)) {
		t.Error("double-shared pair must not be Berge-acyclic")
	}
}

func TestBFSOrder(t *testing.T) {
	c := NewConnection(cycleDB(t, 5))
	order := c.BFSOrder(0)
	if len(order) != 5 || order[0] != 0 {
		t.Fatalf("order = %v", order)
	}
	seen := map[int]bool{0: true}
	for _, v := range order[1:] {
		adjacentToSeen := false
		for _, nb := range c.Adjacent(v) {
			if seen[nb] {
				adjacentToSeen = true
			}
		}
		if !adjacentToSeen {
			t.Errorf("vertex %d not adjacent to any earlier vertex", v)
		}
		seen[v] = true
	}
}

func TestAttributeOccurrences(t *testing.T) {
	occ := AttributeOccurrences(workload.Tourist())
	if got := occ["Country"]; len(got) != 3 {
		t.Errorf("Country occurs in %v", got)
	}
	if got := occ["Climate"]; len(got) != 1 || got[0] != 0 {
		t.Errorf("Climate occurs in %v", got)
	}
	if got := occ["City"]; len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("City occurs in %v", got)
	}
}
