package delta_test

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// prefixDB rebuilds a database holding only the first counts[i] tuples
// of each relation of full — the state an append sequence starts from.
func prefixDB(t *testing.T, full *relation.Database, counts []int) *relation.Database {
	t.Helper()
	rels := make([]*relation.Relation, full.NumRelations())
	for i := range rels {
		src := full.Relation(i)
		dst := relation.MustRelation(src.Name(), src.Schema())
		for j := 0; j < counts[i]; j++ {
			if err := dst.AppendTuple(*src.Tuple(j)); err != nil {
				t.Fatal(err)
			}
		}
		rels[i] = dst
	}
	return relation.MustDatabase(rels...)
}

// appendStep is one randomized batch: relation rel gains the next k
// tuples of the full database.
type appendStep struct {
	rel, k int
}

// randomSteps plans a randomized append sequence replaying full from
// the counts prefix.
func randomSteps(rng *rand.Rand, full *relation.Database, counts []int) []appendStep {
	remaining := 0
	for i, c := range counts {
		remaining += full.Relation(i).Len() - c
	}
	left := append([]int(nil), counts...)
	var steps []appendStep
	for remaining > 0 {
		r := rng.Intn(len(left))
		avail := full.Relation(r).Len() - left[r]
		if avail == 0 {
			continue
		}
		k := 1 + rng.Intn(min(3, avail))
		steps = append(steps, appendStep{rel: r, k: k})
		left[r] += k
		remaining -= k
	}
	return steps
}

func batchTuples(full *relation.Database, step appendStep, firstNew int) []relation.Tuple {
	out := make([]relation.Tuple, step.k)
	for i := 0; i < step.k; i++ {
		out[i] = *full.Relation(step.rel).Tuple(firstNew + i)
	}
	return out
}

// sortedKeys renders a result multiset as its sorted canonical keys.
// Set.Key is member-index based and universe-independent, so lists
// maintained across different (compatibly indexed) universes compare.
func sortedKeys(sets []*tupleset.Set) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return keys
}

func sameMultiset(t *testing.T, label string, got, want []*tupleset.Set) {
	t.Helper()
	g, w := sortedKeys(got), sortedKeys(want)
	if len(g) != len(w) {
		t.Fatalf("%s: delta-maintained %d results, from-scratch %d", label, len(g), len(w))
	}
	for i := range g {
		if g[i] != w[i] {
			t.Fatalf("%s: result multisets diverge at %d: %q vs %q", label, i, g[i], w[i])
		}
	}
}

func shapes() map[string]func(workload.Config) (*relation.Database, error) {
	return map[string]func(workload.Config) (*relation.Database, error){
		"chain":  workload.Chain,
		"star":   workload.Star,
		"clique": workload.Clique,
	}
}

// TestDeltaExactEquivalence: after a randomized append sequence, the
// delta-maintained exact result set is multiset-equal to a
// from-scratch enumeration of the final database, and the rolled
// fingerprint equals the final database's.
func TestDeltaExactEquivalence(t *testing.T) {
	opts := core.Options{UseIndex: true, UseJoinIndex: true}
	for shape, gen := range shapes() {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", shape, seed), func(t *testing.T) {
				full, err := gen(workload.Config{
					Relations: 3, TuplesPerRelation: 8, Domain: 3, NullRate: 0.15, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				rng := rand.New(rand.NewSource(seed * 101))
				counts := make([]int, full.NumRelations())
				for i := range counts {
					counts[i] = full.Relation(i).Len() / 2
				}
				steps := randomSteps(rng, full, counts)

				db := prefixDB(t, full, counts)
				results, _, err := core.FullDisjunction(db, core.JCC, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range steps {
					batch := batchTuples(full, step, db.Relation(step.rel).Len())
					ext, d, err := delta.Append(db, step.rel, batch, opts)
					if err != nil {
						t.Fatal(err)
					}
					results, _ = delta.Patch(d, results, delta.Bare, delta.Bare)
					db = ext
				}

				scratch, _, err := core.FullDisjunction(db, core.JCC, opts)
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, "exact", results, scratch)
				if got, want := db.Fingerprint(), full.Fingerprint(); got != want {
					t.Fatalf("rolled fingerprint %016x != full rebuild %016x", got, want)
				}
			})
		}
	}
}

// TestDeltaApproxEquivalence: the same property for an (Amin,
// Levenshtein, τ)-approximate family, with the sweep and with the join
// index's τ-similar candidates.
func TestDeltaApproxEquivalence(t *testing.T) {
	p, err := approx.Qualify(&approx.Amin{S: approx.LevenshteinSim{}}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	for shape, gen := range shapes() {
		seed := int64(4)
		t.Run(shape, func(t *testing.T) {
			full, err := gen(workload.Config{
				Relations: 3, TuplesPerRelation: 6, Domain: 3, NullRate: 0.15, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed * 17))
			counts := make([]int, full.NumRelations())
			for i := range counts {
				counts[i] = full.Relation(i).Len() / 2
			}
			steps := randomSteps(rng, full, counts)
			for _, joinIndex := range []bool{false, true} {
				opts := core.Options{UseIndex: true, UseJoinIndex: joinIndex}
				db := prefixDB(t, full, counts)
				results, _, err := core.FullDisjunction(db, p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for _, step := range steps {
					firstNew := db.Relation(step.rel).Len()
					batch := batchTuples(full, step, firstNew)
					ext, err := db.Extend(step.rel, batch)
					if err != nil {
						t.Fatal(err)
					}
					d, err := delta.Compute(tupleset.NewUniverse(ext), p, step.rel, firstNew, opts)
					if err != nil {
						t.Fatal(err)
					}
					results, _ = delta.Patch(d, results, delta.Bare, delta.Bare)
					db = ext
				}

				scratch, _, err := core.FullDisjunction(db, p, core.Options{UseIndex: true})
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, fmt.Sprintf("approx join index %v", joinIndex), results, scratch)
			}
		})
	}
}

// bridgeTuple builds a tuple for relation rel of db that joins one
// random tuple of every adjacent relation: each shared attribute copies
// that neighbour's value, every other attribute gets a fresh payload.
// Appending it can merge old results that held those neighbours apart,
// which is the branch of Patch that drops old results.
func bridgeTuple(rng *rand.Rand, db *relation.Database, rel, n int) relation.Tuple {
	r := db.Relation(rel)
	t := relation.Tuple{Label: fmt.Sprintf("bridge%d", n), Values: make([]relation.Value, r.Schema().Len()), Imp: 1, Prob: 1}
	for p := range t.Values {
		t.Values[p] = relation.V(fmt.Sprintf("fresh%d_%d", n, p))
	}
	for _, adj := range db.Adjacent(rel) {
		if db.Relation(adj).Len() == 0 {
			continue
		}
		nb := db.Relation(adj).Tuple(rng.Intn(db.Relation(adj).Len()))
		for _, pp := range db.SharedPositions(rel, adj) {
			t.Values[pp.P1] = nb.Values[pp.P2]
		}
	}
	return t
}

// TestPatchBridgingAppends: on random chain, star and cycle databases,
// appends of tuples that bridge old results keep the patched list
// (delta.Patch) multiset-equal to a from-scratch enumeration, for the
// exact and the (Amin, Levenshtein, τ) families; and at least one
// append per family drops old results, so the subsumption branch runs.
func TestPatchBridgingAppends(t *testing.T) {
	apx, err := approx.Qualify(&approx.Amin{S: approx.LevenshteinSim{}}, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	families := []struct {
		name string
		p    core.Predicate
	}{{"exact", core.JCC}, {"approx", apx}}
	gens := []struct {
		name string
		gen  func(workload.Config) (*relation.Database, error)
	}{{"chain", workload.Chain}, {"star", workload.Star}, {"cycle", workload.Cycle}}
	opts := core.Options{UseIndex: true, UseJoinIndex: true}
	for _, fam := range families {
		removedTotal := 0
		for _, g := range gens {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed * 31))
				db, err := g.gen(workload.Config{
					Relations: 3 + rng.Intn(2), TuplesPerRelation: 5, Domain: 5, NullRate: 0.2, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				results, _, err := core.FullDisjunction(db, fam.p, opts)
				if err != nil {
					t.Fatal(err)
				}
				for n := 0; n < 6; n++ {
					rel := rng.Intn(db.NumRelations())
					firstNew := db.Relation(rel).Len()
					ext, err := db.Extend(rel, []relation.Tuple{bridgeTuple(rng, db, rel, n)})
					if err != nil {
						t.Fatal(err)
					}
					d, err := delta.Compute(tupleset.NewUniverse(ext), fam.p, rel, firstNew, opts)
					if err != nil {
						t.Fatal(err)
					}
					var removed int
					results, removed = delta.Patch(d, results, delta.Bare, delta.Bare)
					removedTotal += removed
					db = ext
					scratch, _, err := core.FullDisjunction(db, fam.p, opts)
					if err != nil {
						t.Fatal(err)
					}
					sameMultiset(t, fmt.Sprintf("%s %s seed %d append %d", fam.name, g.name, seed, n), results, scratch)
				}
			}
		}
		if removedTotal == 0 {
			t.Errorf("%s: no append removed an old result", fam.name)
		}
		t.Logf("%s: %d old results removed", fam.name, removedTotal)
	}
}

// TestExtendConcurrentWithReaders: extending a database races nothing —
// concurrent enumerations over the base database run while batches are
// appended and delta-enumerated. The race detector is the assertion.
func TestExtendConcurrentWithReaders(t *testing.T) {
	full, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	counts := []int{4, 4, 4}
	base := prefixDB(t, full, counts)
	base.Freeze()
	opts := core.Options{UseIndex: true, UseJoinIndex: true}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, _, err := core.FullDisjunction(base, core.JCC, opts); err != nil {
				t.Error(err)
			}
		}()
	}
	db := base
	for _, step := range []appendStep{{0, 2}, {2, 3}, {1, 1}} {
		batch := batchTuples(full, step, db.Relation(step.rel).Len())
		ext, _, err := delta.Append(db, step.rel, batch, opts)
		if err != nil {
			t.Fatal(err)
		}
		db = ext
	}
	wg.Wait()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
