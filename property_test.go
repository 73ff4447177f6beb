package fd_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	fd "repro"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// randomConfig derives a small workload configuration from quick's
// random values.
func randomConfig(relations, tuples, domain uint8, nullRate float64, seed int64) workload.Config {
	nr := nullRate - float64(int(nullRate))
	if nr < 0 {
		nr = -nr
	}
	return workload.Config{
		Relations:         2 + int(relations%4),
		TuplesPerRelation: 1 + int(tuples%5),
		Domain:            1 + int(domain%4),
		NullRate:          nr * 0.5,
		Seed:              seed,
	}
}

// TestPropertyFDMatchesOracle drives the exact query against the
// definitional oracle on quick-generated workload configurations across
// all generator shapes: fd.Open, and the engine under every index flag
// and initialisation strategy.
func TestPropertyFDMatchesOracle(t *testing.T) {
	shapes := []func(workload.Config) (*fd.Database, error){
		workload.Chain,
		workload.Star,
		func(c workload.Config) (*fd.Database, error) { return workload.Random(c, 0.5) },
	}
	f := func(relations, tuples, domain uint8, nullRate float64, seed int64, shapeSel uint8, useIndex, useJoinIndex bool, strat uint8) bool {
		cfg := randomConfig(relations, tuples, domain, nullRate, seed)
		gen := shapes[int(shapeSel)%len(shapes)]
		db, err := gen(cfg)
		if err != nil {
			return true // star needs ≥2 relations etc.; skip invalid configs
		}
		want := countSets(naive.FullDisjunction(db))
		opened, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
		if err != nil {
			t.Logf("full disjunction error: %v", err)
			return false
		}
		opts := core.Options{
			UseIndex:     useIndex,
			UseJoinIndex: useJoinIndex,
			Strategy:     []core.InitStrategy{core.InitSingletons, core.InitSeeded, core.InitProjected}[int(strat)%3],
		}
		engine, _, err := core.FullDisjunction(db, opts)
		if err != nil {
			t.Logf("full disjunction error: %v", err)
			return false
		}
		for _, got := range []map[string]int{countSets(opened), countSets(engine)} {
			if !reflect.DeepEqual(got, want) {
				t.Logf("mismatch: got %d want %d (cfg %+v, opts %+v)", len(got), len(want), cfg, opts)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestPropertyStreamPrefixStable: for every k, a K-bounded query
// yields k distinct members of the full full disjunction.
func TestPropertyStreamPrefixStable(t *testing.T) {
	f := func(seed int64, kRaw uint8) bool {
		db, err := workload.Chain(workload.Config{
			Relations: 4, TuplesPerRelation: 5, Domain: 3, NullRate: 0.2, Seed: seed})
		if err != nil {
			return true
		}
		full, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
		if err != nil {
			return false
		}
		if len(full) == 0 {
			return true
		}
		k := 1 + int(kRaw)%len(full)
		keys := make(map[string]bool, len(full))
		for _, s := range full {
			keys[s.Key()] = true
		}
		q := exactQuery(fd.QueryOptions{})
		q.K = k
		got, _, err := drainSets(db, q)
		if err != nil {
			return false
		}
		if len(got) != k {
			return false
		}
		seen := map[string]bool{}
		for _, s := range got {
			if !keys[s.Key()] || seen[s.Key()] {
				return false
			}
			seen[s.Key()] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestPropertyRankedOrder: a ranked query emits non-increasing ranks and
// exactly the full disjunction, for random importance assignments.
func TestPropertyRankedOrder(t *testing.T) {
	f := func(seed int64) bool {
		db, err := workload.Star(workload.Config{
			Relations: 4, TuplesPerRelation: 4, Domain: 3, NullRate: 0.1,
			ImpMax: 50, Seed: seed})
		if err != nil {
			return true
		}
		results, _, err := drain(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax"})
		if err != nil {
			return false
		}
		var ranks []float64
		count := 0
		for _, r := range results {
			ranks = append(ranks, r.Rank)
			count++
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i-1] < ranks[i]-1e-9 {
				return false
			}
		}
		want, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
		if err != nil {
			return false
		}
		return count == len(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyCSVRoundTrip: writing and re-reading any generated
// relation preserves every value, label, importance and probability.
func TestPropertyCSVRoundTrip(t *testing.T) {
	f := func(seed int64, dirty bool) bool {
		var db *fd.Database
		var err error
		if dirty {
			db, err = workload.DirtyChain(workload.DirtyConfig{
				Config:    workload.Config{Relations: 3, TuplesPerRelation: 6, Domain: 3, NullRate: 0.3, Seed: seed},
				ErrorRate: 0.4, MaxEdits: 2, MinProb: 0.3,
			})
		} else {
			db, err = workload.Chain(workload.Config{
				Relations: 3, TuplesPerRelation: 6, Domain: 3, NullRate: 0.3, ImpMax: 9, Seed: seed})
		}
		if err != nil {
			return true
		}
		for r := 0; r < db.NumRelations(); r++ {
			rel := db.Relation(r)
			var buf bytes.Buffer
			if err := fd.WriteCSV(rel, &buf); err != nil {
				return false
			}
			back, err := fd.ReadCSV(rel.Name(), &buf)
			if err != nil {
				return false
			}
			if back.Len() != rel.Len() || !back.Schema().Equal(rel.Schema()) {
				return false
			}
			for i := 0; i < rel.Len(); i++ {
				a, b := rel.Tuple(i), back.Tuple(i)
				if a.Label != b.Label || a.Imp != b.Imp || a.Prob != b.Prob {
					return false
				}
				for p := range a.Values {
					if a.Values[p] != b.Values[p] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPaddedSubsumptionFree: the padded renderings of a full
// disjunction never strictly subsume one another — the "no redundancy"
// condition in the classical [2] reading of the operator.
func TestPropertyPaddedSubsumptionFree(t *testing.T) {
	f := func(seed int64) bool {
		db, err := workload.Chain(workload.Config{
			Relations: 3, TuplesPerRelation: 5, Domain: 3, NullRate: 0.2, Seed: seed})
		if err != nil {
			return true
		}
		sets, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
		if err != nil {
			return false
		}
		_, rows := fd.PadAll(db, sets)
		for i := range rows {
			for j := range rows {
				if i == j {
					continue
				}
				// Strict subsumption between distinct padded rows would
				// contradict maximality of the underlying tuple sets
				// (equal rows may occur for duplicate source tuples).
				if rows[i].Subsumes(rows[j]) && !rows[j].Subsumes(rows[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropertyApproxContainsExact: with unit probabilities, every exact
// full-disjunction answer is covered by an approximate answer at any
// τ ∈ (0,1] under Amin+Levenshtein (similarity 1 on exact matches).
func TestPropertyApproxContainsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		db, err := workload.Chain(workload.Config{
			Relations: 3, TuplesPerRelation: 4, Domain: 3, NullRate: 0.2,
			Seed: rng.Int63()})
		if err != nil {
			t.Fatal(err)
		}
		tau := 0.05 + rng.Float64()*0.9
		exact, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
		if err != nil {
			t.Fatal(err)
		}
		approxSets, _, err := drainSets(db, fd.Query{Mode: fd.ModeApprox, Tau: tau, Sim: "levenshtein",
			Options: fd.QueryOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range exact {
			covered := false
			for _, a := range approxSets {
				if a.ContainsAll(e) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("trial %d τ=%v: exact answer %s not covered by AFD",
					trial, tau, fd.Format(db, e))
			}
		}
	}
}

// TestPropertyStatsConsistency: iterations equal results per seed
// enumeration (Example 4.1's observation), across random workloads.
func TestPropertyStatsConsistency(t *testing.T) {
	f := func(seed int64, seedRel uint8) bool {
		db, err := workload.Random(workload.Config{
			Relations: 4, TuplesPerRelation: 4, Domain: 3, NullRate: 0.2, Seed: seed}, 0.4)
		if err != nil {
			return true
		}
		i := int(seedRel) % db.NumRelations()
		sets, stats, err := core.FDi(db, i, core.Options{})
		if err != nil {
			return false
		}
		return stats.Iterations == len(sets) && stats.MaxResident <= maxInt(len(sets), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// TestPropertyKeyInjective: distinct tuple sets have distinct keys;
// clones share keys.
func TestPropertyKeyInjective(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 6, Domain: 3, NullRate: 0.1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	all := naive.EnumerateConnected(u, func(s *tupleset.Set) bool { return u.JCC(s) })
	seen := make(map[string]*tupleset.Set, len(all))
	for _, s := range all {
		if prev, ok := seen[s.Key()]; ok && !prev.Equal(s) {
			t.Fatalf("key collision: %s vs %s", prev.Format(db), s.Format(db))
		}
		seen[s.Key()] = s
		if s.Clone().Key() != s.Key() {
			t.Fatal("clone changed key")
		}
	}
	if len(seen) != len(all) {
		t.Fatalf("%d keys for %d sets", len(seen), len(all))
	}
}

// TestPropertySignatureOracles: the signature-based predicates —
// ConsistentWith (binding probe), UnionJCC (binding-vector merge +
// bitmask adjacency) and MaximalSubsetWith (bitset component walk) —
// agree with the retained pairwise oracles on randomized chain, star
// and clique databases, across set states the enumerator produces:
// freshly built (valid signature), shrunk or member-replaced (stale,
// rebuilt lazily) and internally inconsistent (conflicted, answered by
// the pairwise fallback).
func TestPropertySignatureOracles(t *testing.T) {
	shapes := map[string]func(workload.Config) (*fd.Database, error){
		"chain":  workload.Chain,
		"star":   workload.Star,
		"clique": workload.Clique,
	}
	for name, gen := range shapes {
		for seed := int64(1); seed <= 5; seed++ {
			db, err := gen(workload.Config{
				Relations: 4, TuplesPerRelation: 5, Domain: 3, NullRate: 0.25, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			u := tupleset.NewUniverse(db)
			rng := rand.New(rand.NewSource(seed * 977))
			var refs []fd.Ref
			db.ForEachRef(func(r fd.Ref) bool { refs = append(refs, r); return true })
			randRef := func() fd.Ref { return refs[rng.Intn(len(refs))] }

			var sets []*fd.TupleSet
			for i := 0; i < 12; i++ {
				// (a) greedy JC extension from a random singleton —
				// valid signatures, the enumerator's steady state.
				s := u.Singleton(randRef())
				for tries := 0; tries < 8; tries++ {
					if ref := randRef(); u.JCCWithTuple(s, ref) {
						s.Add(ref)
					}
				}
				sets = append(sets, s)
				// (b) arbitrary member combinations — frequently
				// inconsistent, exercising the conflicted fallback.
				a := u.NewSet()
				for k := 0; k <= rng.Intn(3); k++ {
					a.Add(randRef())
				}
				if !a.Empty() {
					sets = append(sets, a)
				}
				// (c) shrunk and member-replaced copies — stale
				// signatures rebuilt lazily.
				c := s.Clone()
				c.Remove(rng.Intn(db.NumRelations()))
				if !c.Empty() {
					sets = append(sets, c)
				}
				d := s.Clone()
				d.Add(randRef()) // may replace an existing member
				sets = append(sets, d)
			}

			for _, s := range sets {
				for trial := 0; trial < 12; trial++ {
					ref := randRef()
					if got, want := u.ConsistentWith(s, ref), u.OracleConsistentWith(s, ref); got != want {
						t.Fatalf("%s seed %d: ConsistentWith(%s, %v) = %v, oracle %v",
							name, seed, s.Format(db), ref, got, want)
					}
					got := u.MaximalSubsetWith(s, ref)
					want := u.OracleMaximalSubsetWith(s, ref)
					if !got.Equal(want) {
						t.Fatalf("%s seed %d: MaximalSubsetWith(%s, %v) = %s, oracle %s",
							name, seed, s.Format(db), ref, got.Format(db), want.Format(db))
					}
				}
			}
			for i := range sets {
				for j := range sets {
					a, b := sets[i], sets[j]
					if a.Empty() || b.Empty() {
						continue
					}
					if got, want := u.UnionJCC(a, b), u.OracleUnionJCC(a, b); got != want {
						t.Fatalf("%s seed %d: UnionJCC(%s, %s) = %v, oracle %v",
							name, seed, a.Format(db), b.Format(db), got, want)
					}
				}
			}
		}
	}
}

// TestPropertySignatureCountersMove: an indexed enumeration actually
// runs on the signature fast path (hits accrue) and the lazily built
// discovery candidates account for the rebuilds.
func TestPropertySignatureCountersMove(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	_, stats, err := drainSets(db, exactQuery(fd.QueryOptions{}))
	if err != nil {
		t.Fatal(err)
	}
	if stats.SigHits == 0 {
		t.Error("SigHits = 0; the signature fast path never ran")
	}
	if stats.SigRebuilds == 0 {
		t.Error("SigRebuilds = 0; lazily built candidates were never rebuilt")
	}
}

// TestPropertyJoinIndexEquivalence: the candidate-only iteration backed
// by the dictionary-code posting index produces exactly the same full
// disjunction as the full sweep, for every initialisation strategy and
// workload shape, while visiting strictly fewer tuples on selective
// workloads; fd.Open, which always runs the index, agrees too.
func TestPropertyJoinIndexEquivalence(t *testing.T) {
	shapes := map[string]func(workload.Config) (*fd.Database, error){
		"chain":  workload.Chain,
		"star":   workload.Star,
		"clique": workload.Clique,
		"cycle":  workload.Cycle,
	}
	var skippedSomewhere bool
	for name, gen := range shapes {
		for seed := int64(1); seed <= 10; seed++ {
			db, err := gen(workload.Config{
				Relations: 4, TuplesPerRelation: 6, Domain: 4, NullRate: 0.2, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			for _, strat := range []core.InitStrategy{core.InitSingletons, core.InitSeeded, core.InitProjected} {
				sweep, _, err := core.FullDisjunction(db, core.Options{Strategy: strat})
				if err != nil {
					t.Fatal(err)
				}
				indexed, stats, err := core.FullDisjunction(db, core.Options{Strategy: strat, UseJoinIndex: true})
				if err != nil {
					t.Fatal(err)
				}
				checkSameSets(t, fmt.Sprintf("%s seed %d %v", name, seed, strat), db, indexed, sweep)
				if stats.TuplesSkipped > 0 {
					skippedSomewhere = true
				}
				if strat != core.InitSingletons {
					continue
				}
				opened, _, err := drainSets(db, exactQuery(fd.QueryOptions{}))
				if err != nil {
					t.Fatal(err)
				}
				checkSameSets(t, fmt.Sprintf("%s seed %d fd.Open", name, seed), db, opened, sweep)
			}
		}
	}
	if !skippedSomewhere {
		t.Error("candidate iteration never skipped a tuple; the index is not being consulted")
	}
}

// checkSameSets fails the test unless got and the sweep's sets are the
// same set of results.
func checkSameSets(t *testing.T, label string, db *fd.Database, got, sweep []*fd.TupleSet) {
	t.Helper()
	want := make(map[string]bool, len(sweep))
	for _, s := range sweep {
		want[s.Key()] = true
	}
	if len(got) != len(sweep) {
		t.Fatalf("%s: %d results with join index, %d without", label, len(got), len(sweep))
	}
	for _, s := range got {
		if !want[s.Key()] {
			t.Fatalf("%s: join index produced a result the sweep did not: %s", label, s.Format(db))
		}
	}
}
