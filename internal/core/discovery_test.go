package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// tinyDBs returns random tiny chain, cycle and star databases with
// nulls: the shapes whose adjacency differs in degree and in cycles.
func tinyDBs(t *testing.T, rng *rand.Rand, rounds int) []*relation.Database {
	t.Helper()
	shapes := []struct {
		gen    func(workload.Config) (*relation.Database, error)
		minRel int
	}{
		{workload.Chain, 2},
		{workload.Cycle, 3},
		{workload.Star, 2},
	}
	var out []*relation.Database
	for i := 0; i < rounds; i++ {
		for _, shape := range shapes {
			cfg := workload.Config{Relations: shape.minRel + rng.Intn(5-shape.minRel),
				TuplesPerRelation: 2 + rng.Intn(5), Domain: 2 + rng.Intn(2), NullRate: 0.25,
				Seed: rng.Int63()}
			db, err := shape.gen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, db)
		}
	}
	return out
}

// randomJCC grows a random JCC set over the relations [minRel, n) from
// one random tuple, adding random tuples that keep it JCC.
func randomJCC(u *tupleset.Universe, rng *rand.Rand, minRel int) *tupleset.Set {
	db := u.DB
	var scope []relation.Ref
	db.ForEachRef(func(ref relation.Ref) bool {
		if int(ref.Rel) >= minRel {
			scope = append(scope, ref)
		}
		return true
	})
	rng.Shuffle(len(scope), func(i, j int) { scope[i], scope[j] = scope[j], scope[i] })
	T := u.Singleton(scope[0])
	for _, ref := range scope[1:] {
		if rng.Intn(2) == 0 && !T.HasRelation(int(ref.Rel)) && u.JCCWithTuple(T, ref, nil) {
			T.Add(ref)
		}
	}
	return T
}

// TestDiscoveryCandidatesExhaustive checks the candidate half of the
// join-index discovery walk (Scanner.ForEachDiscovery): for random JCC
// sets T on tiny chain, cycle and star databases with nulls, every tb
// ∉ T in scope whose maximal subset T' of T ∪ {tb} holds a tuple of the
// seed relation and is not the singleton {tb} is visited. Those are
// the tb whose T' line 9 keeps and line 11 or 14 may not discard; the
// singletons the walk skips are covered by TestSeedCoverageInvariant.
func TestDiscoveryCandidatesExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	checked := 0
	for _, db := range tinyDBs(t, rng, 12) {
		u := tupleset.NewUniverse(db)
		n := db.NumRelations()
		for seed := 0; seed < n; seed++ {
			for _, minRel := range []int{0, seed} {
				var stats Stats
				sc := NewScanner(db, Options{UseJoinIndex: true}, minRel, &stats, Candidates{})
				for trial := 0; trial < 6; trial++ {
					T := randomJCC(u, rng, minRel)
					visited := map[relation.Ref]bool{}
					sc.ForEachDiscovery(T, func(tb relation.Ref) bool {
						visited[tb] = true
						return true
					})
					tPrime := u.NewSet()
					db.ForEachRef(func(tb relation.Ref) bool {
						if int(tb.Rel) < minRel || T.Has(tb) {
							return true
						}
						u.MaximalSubsetInto(tPrime, T, tb, nil)
						if !tPrime.HasRelation(seed) || tPrime.Len() == 1 {
							return true
						}
						checked++
						if !visited[tb] {
							t.Fatalf("seed %d minRel %d: T = %s, tb = %s: T' = %s holds a seed tuple but tb was not visited",
								seed, minRel, T.Format(db), db.Label(tb), tPrime.Format(db))
						}
						return true
					})
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d candidates checked; the databases are too sparse to test anything", checked)
	}
}

// TestSeedCoverageInvariant checks the coverage half of the argument
// in Scanner.ForEachDiscovery: after every Next of window, pass and
// seeded enumerators, each window tuple of the seed relation lies in a
// set of Incomplete or of Complete, so a singleton candidate {tb} is
// always discarded at line 11 or 14 and the join-index walk may skip
// it.
func TestSeedCoverageInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, db := range tinyDBs(t, rng, 6) {
		u := tupleset.NewUniverse(db)
		n := db.NumRelations()
		for _, opts := range []Options{{UseJoinIndex: true}, {UseIndex: true, UseJoinIndex: true}} {
			for seed := 0; seed < n; seed++ {
				m := db.Relation(seed).Len()
				lo := rng.Intn(m + 1)
				hi := lo + rng.Intn(m-lo+1)
				w, err := NewWindowEnumerator(u, JCC, seed, lo, hi, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkCoverage(t, fmt.Sprintf("window [%d,%d)", lo, hi), w, seed, lo, hi)
				p, err := NewPassEnumerator(u, JCC, seed, lo, hi, opts)
				if err != nil {
					t.Fatal(err)
				}
				checkCoverage(t, fmt.Sprintf("pass window [%d,%d)", lo, hi), p, seed, lo, hi)
			}
			for _, strategy := range []InitStrategy{InitSeeded, InitProjected} {
				opts.Strategy = strategy
				var stats Stats
				printed := NewCompleteStore(u, true)
				for pass := 0; pass < n; pass++ {
					e, err := NewSeededEnumerator(u, JCC, pass, opts, seedInit(u, pass, opts, printed, &stats), pass)
					if err != nil {
						t.Fatal(err)
					}
					for _, s := range checkCoverage(t, strategy.String(), e, pass, 0, db.Relation(pass).Len()) {
						anchor, _ := s.Member(pass)
						if !printed.ContainsSuperset(s, anchor, &stats) {
							printed.Add(s)
						}
					}
				}
			}
		}
	}
}

// checkCoverage drains e, checking the coverage invariant for the seed
// tuples in [lo, hi) before the first Next and after every one, and
// returns the results.
func checkCoverage(t *testing.T, label string, e *Enumerator, seed, lo, hi int) []*tupleset.Set {
	t.Helper()
	db := e.w.U.DB
	var out []*tupleset.Set
	for step := 0; ; step++ {
		covered := map[int32]bool{}
		for _, sets := range [][]*tupleset.Set{e.Incomplete(), e.Complete().Sets()} {
			for _, s := range sets {
				if ref, ok := s.Member(seed); ok {
					covered[ref.Idx] = true
				}
			}
		}
		for i := lo; i < hi; i++ {
			if !covered[int32(i)] {
				t.Fatalf("%s, seed %d, after %d results: %s lies in no Incomplete or Complete set",
					label, seed, step, db.Label(relation.Ref{Rel: int32(seed), Idx: int32(i)}))
			}
		}
		s, ok := e.Next()
		if !ok {
			return out
		}
		out = append(out, s)
	}
}
