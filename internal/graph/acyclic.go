package graph

import (
	"sort"

	"repro/internal/relation"
)

// BergeAcyclic reports whether the schema hypergraph of db is
// Berge-acyclic: its bipartite incidence graph (attributes on one side,
// relations on the other, an edge when the relation's schema mentions
// the attribute) contains no cycle. Berge-acyclicity is the strictest
// level of Fagin's acyclicity hierarchy — Berge ⟹ γ ⟹ β ⟹ α — so it is
// a sound (sufficient) gate for methods that require γ-acyclicity, such
// as the Rajaraman–Ullman outerjoin sequence, and unlike γ-acyclicity
// it has a trivially correct decision procedure.
//
// Attributes occurring in a single relation cannot lie on a cycle and
// are skipped, so payload columns do not affect the answer.
func BergeAcyclic(db *relation.Database) bool {
	n := db.NumRelations()
	// Union-find over relation vertices; each shared attribute links
	// all its relations in a star. A cycle exists iff some attribute
	// edge closes a loop — i.e. union finds the two endpoints already
	// connected — or an attribute pair is shared twice (multi-edge).
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, rels := range AttributeOccurrences(db) {
		if len(rels) < 2 {
			continue
		}
		// The attribute vertex with degree d contributes d-1 tree edges
		// in the incidence graph; it closes a cycle iff two of its
		// relations are already connected (through other attributes or
		// through this attribute's earlier links).
		for _, r := range rels[1:] {
			a, b := find(rels[0]), find(r)
			if a == b {
				return false
			}
			parent[a] = b
		}
	}
	return true
}

// AttributeOccurrences returns, for every attribute in the database,
// the sorted list of relations whose schema mentions it. Useful for
// diagnostics and for workload validation in tests.
func AttributeOccurrences(db *relation.Database) map[relation.Attribute][]int {
	occ := make(map[relation.Attribute][]int)
	for i := 0; i < db.NumRelations(); i++ {
		for _, a := range db.Relation(i).Schema().Attributes() {
			occ[a] = append(occ[a], i)
		}
	}
	for a := range occ {
		sort.Ints(occ[a])
	}
	return occ
}
