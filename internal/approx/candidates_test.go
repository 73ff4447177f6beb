package approx

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// simValues are join values whose lengths differ by one next to their
// prefixes, so the pairs "a"/"ab", "abc"/"abcd", "abcd"/"abcde" and
// "abc"/"abcde" sit exactly on the Levenshtein thresholds 0.5, 0.75,
// 0.8 and 0.6 — the pairs a length filter one too tight, or a dropped
// neighbour code, loses.
var simValues = []string{"a", "b", "ab", "bb", "ba", "abc", "abd", "bbc", "abcd", "abce", "abcde", "abcdf"}

// simDBs returns random tiny chain, cycle and star databases whose
// non-null join values are redrawn from simValues and whose tuples get
// probabilities around the thresholds, so both the liveness skip and
// the τ-neighbour postings matter.
func simDBs(t *testing.T, rng *rand.Rand, rounds int) []*relation.Database {
	t.Helper()
	shapes := []struct {
		gen    func(workload.Config) (*relation.Database, error)
		minRel int
	}{
		{workload.Chain, 2},
		{workload.Cycle, 3},
		{workload.Star, 2},
	}
	probs := []float64{1, 1, 0.9, 0.8, 0.75, 0.6, 0.5, 0.4}
	var out []*relation.Database
	for i := 0; i < rounds; i++ {
		for _, shape := range shapes {
			db, err := shape.gen(workload.Config{Relations: shape.minRel + rng.Intn(5-shape.minRel),
				TuplesPerRelation: 2 + rng.Intn(5), Domain: 2, NullRate: 0.15, Seed: rng.Int63()})
			if err != nil {
				t.Fatal(err)
			}
			for _, rel := range db.Relations() {
				for j := 0; j < rel.Len(); j++ {
					rel.MutateTuple(j, func(tp *relation.Tuple) {
						tp.Prob = probs[rng.Intn(len(probs))]
						for p, v := range tp.Values {
							if !v.IsNull() {
								tp.Values[p] = relation.V(simValues[rng.Intn(len(simValues))])
							}
						}
					})
				}
			}
			out = append(out, db)
		}
	}
	return out
}

// randomQualifying grows a random connected set with A ≥ τ over the
// relations [minRel, n) from one random live tuple, adding random
// tuples that keep it qualifying (the predicate's Extends test, on w);
// nil when no tuple of the scope is live.
func randomQualifying(w *core.Walk, rng *rand.Rand, minRel int) *tupleset.Set {
	u := w.U
	var scope []relation.Ref
	u.DB.ForEachRef(func(ref relation.Ref) bool {
		if int(ref.Rel) >= minRel {
			scope = append(scope, ref)
		}
		return true
	})
	rng.Shuffle(len(scope), func(i, j int) { scope[i], scope[j] = scope[j], scope[i] })
	var T *tupleset.Set
	for _, ref := range scope {
		switch {
		case T == nil:
			if s := u.Singleton(ref); w.P.Qualifies(u, s) {
				T = s
			}
		case rng.Intn(3) > 0:
			if w.P.Extends(w, T, ref) {
				T.Add(ref)
			}
		}
	}
	return T
}

// TestSimCandidatesExhaustive checks the candidate source Scanner
// derives for Amin and Aprod under LevenshteinSim: for random
// qualifying sets T on tiny chain, cycle and star databases, every tb
// ∉ T that matters is visited by the join-index walk — by the
// extension walk (and the prefix walk before a pass) when T ∪ {tb}
// qualifies, and by the discovery walk when MaximalSubsets(T, tb)
// yields a T' ≠ {tb} that holds a seed tuple. The singletons {tb} the
// walk skips are the coverage case of core.Scanner.ForEachDiscovery.
func TestSimCandidatesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	joins := []Join{&Amin{S: LevenshteinSim{}}, &Aprod{S: LevenshteinSim{}}}
	checked := map[string]int{}
	for _, db := range simDBs(t, rng, 10) {
		u := tupleset.NewUniverse(db)
		n := db.NumRelations()
		for _, a := range joins {
			for _, tau := range []float64{0.5, 0.6, 0.75, 0.8} {
				for seed := 0; seed < n; seed++ {
					for _, minRel := range []int{0, seed} {
						var stats core.Stats
						q := qualifier{a, tau}
						w := core.NewWalk(u, q, core.Options{}, 0, &stats)
						sc := q.Scanner(u, core.Options{UseJoinIndex: true}, minRel, &stats)
						prefix := sc.Prefix()
						for trial := 0; trial < 4; trial++ {
							T := randomQualifying(w, rng, minRel)
							if T == nil {
								continue
							}
							where := fmt.Sprintf("%s τ %v seed %d minRel %d: T = %s", a.Name(), tau, seed, minRel, T.Format(db))
							ext, disc := visits(T, sc.ForEachExtension), visits(T, sc.ForEachDiscovery)
							ext0 := visits(T, prefix.ForEachExtension)
							db.ForEachRef(func(tb relation.Ref) bool {
								if T.Has(tb) {
									return true
								}
								if w.P.Extends(w, T, tb) {
									checked["extension"]++
									if int(tb.Rel) >= minRel && !ext[tb] || int(tb.Rel) < minRel && !ext0[tb] {
										t.Fatalf("%s: T ∪ {%s} qualifies but tb was not visited", where, db.Label(tb))
									}
								}
								if int(tb.Rel) < minRel {
									return true
								}
								for _, tPrime := range a.MaximalSubsets(u, T, tb, tau) {
									if !tPrime.HasRelation(seed) || tPrime.Len() == 1 {
										continue
									}
									checked["discovery"]++
									if !disc[tb] {
										t.Fatalf("%s: T' = %s holds a seed tuple but tb = %s was not visited",
											where, tPrime.Format(db), db.Label(tb))
									}
								}
								return true
							})
						}
					}
				}
			}
		}
	}
	t.Logf("candidates checked: %v", checked)
	for _, walk := range []string{"extension", "discovery"} {
		if checked[walk] < 500 {
			t.Fatalf("only %d %s candidates checked; the databases are too sparse to test anything", checked[walk], walk)
		}
	}
}

// visits records the tuples one walk over T visits.
func visits(T *tupleset.Set, walk func(*tupleset.Set, func(relation.Ref) bool)) map[relation.Ref]bool {
	seen := map[relation.Ref]bool{}
	walk(T, func(ref relation.Ref) bool {
		seen[ref] = true
		return true
	})
	return seen
}
