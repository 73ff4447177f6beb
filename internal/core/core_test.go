package core

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

func formatAll(db *relation.Database, sets []*tupleset.Set) []string {
	out := make([]string, len(sets))
	for i, s := range sets {
		out[i] = s.Format(db)
	}
	sort.Strings(out)
	return out
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestTable2Reproduction checks that FD(Climates, Accommodations,
// Sites) is exactly the six tuple sets of Table 2, under every
// initialisation strategy and with and without the hash index.
func TestTable2Reproduction(t *testing.T) {
	want := workload.Table2()
	sort.Strings(want)
	for _, strategy := range []InitStrategy{InitSingletons, InitSeeded, InitProjected} {
		for _, useIndex := range []bool{false, true} {
			name := fmt.Sprintf("strategy=%s/index=%v", strategy, useIndex)
			t.Run(name, func(t *testing.T) {
				db := workload.Tourist()
				got, _, err := FullDisjunction(db, JCC, Options{Strategy: strategy, UseIndex: useIndex})
				if err != nil {
					t.Fatal(err)
				}
				gotStr := formatAll(db, got)
				if !equalStrings(gotStr, want) {
					t.Errorf("FD mismatch:\n got  %v\n want %v", gotStr, want)
				}
			})
		}
	}
}

// TestTable3Trace replays INCREMENTALFD({Climates, Accommodations,
// Sites}, 1) and checks the contents of Incomplete and Complete after
// every iteration against Table 3 of the paper.
func TestTable3Trace(t *testing.T) {
	db := workload.Tourist()
	u := tupleset.NewUniverse(db)

	type snapshot struct {
		incomplete []string
		complete   []string
	}
	var got []snapshot
	e, err := NewEnumerator(u, JCC, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, ok := e.Next(); !ok {
			break
		}
		snap := snapshot{}
		for _, s := range e.Incomplete() {
			snap.incomplete = append(snap.incomplete, s.Format(db))
		}
		for _, s := range e.Complete().Sets() {
			snap.complete = append(snap.complete, s.Format(db))
		}
		got = append(got, snap)
	}

	// Table 3 columns Iteration 1..6, compared in the exact top-to-
	// bottom order the paper prints: the list discipline (pop from the
	// front, place each iteration's new sets at the front as a group)
	// reproduces the trace verbatim.
	want := []snapshot{
		{ // Iteration 1
			incomplete: []string{"{c1, a2, s1}", "{c1, s2}", "{c2}", "{c3}"},
			complete:   []string{"{c1, a1}"},
		},
		{ // Iteration 2
			incomplete: []string{"{c1, s2}", "{c2}", "{c3}"},
			complete:   []string{"{c1, a1}", "{c1, a2, s1}"},
		},
		{ // Iteration 3
			incomplete: []string{"{c2}", "{c3}"},
			complete:   []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}"},
		},
		{ // Iteration 4
			incomplete: []string{"{c2, s4}", "{c3}"},
			complete:   []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}"},
		},
		{ // Iteration 5
			incomplete: []string{"{c3}"},
			complete:   []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}"},
		},
		{ // Iteration 6
			incomplete: nil,
			complete:   []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}", "{c3, a3}"},
		},
	}
	if len(got) != len(want) {
		t.Fatalf("got %d iterations, want %d", len(got), len(want))
	}
	for i := range want {
		if !equalStrings(got[i].incomplete, want[i].incomplete) {
			t.Errorf("iteration %d: Incomplete = %v, want %v", i+1, got[i].incomplete, want[i].incomplete)
		}
		if !equalStrings(got[i].complete, want[i].complete) {
			t.Errorf("iteration %d: Complete = %v, want %v", i+1, got[i].complete, want[i].complete)
		}
	}
	// Example 4.1: the loop iterates exactly as many times as there are
	// results (six).
	if e.Stats().Iterations != 6 {
		t.Errorf("iterations = %d, want 6", e.Stats().Iterations)
	}
}

// TestFDiSeedSemantics checks that FDi(R) contains exactly the results
// holding a tuple of the seed relation.
func TestFDiSeedSemantics(t *testing.T) {
	db := workload.Tourist()
	wantPerSeed := map[int][]string{
		0: {"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}", "{c3, a3}"},
		1: {"{c1, a1}", "{c1, a2, s1}", "{c3, a3}"},
		2: {"{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}"},
	}
	for seed, want := range wantPerSeed {
		e, err := NewEnumerator(tupleset.NewUniverse(db), JCC, seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotStr := formatAll(db, e.All())
		sort.Strings(want)
		if !equalStrings(gotStr, want) {
			t.Errorf("FD_%d = %v, want %v", seed, gotStr, want)
		}
	}
}

// TestAgainstOracle cross-checks FullDisjunction against the
// brute-force oracle over a grid of synthetic workloads, for every
// strategy/index combination.
func TestAgainstOracle(t *testing.T) {
	type gen func(workload.Config) (*relation.Database, error)
	gens := map[string]gen{
		"chain": workload.Chain,
		"star":  workload.Star,
		"cycle": workload.Cycle,
		"clique": func(c workload.Config) (*relation.Database, error) {
			return workload.Clique(c)
		},
		"random": func(c workload.Config) (*relation.Database, error) {
			return workload.Random(c, 0.4)
		},
	}
	for name, g := range gens {
		for seed := int64(1); seed <= 6; seed++ {
			cfg := workload.Config{
				Relations:         3 + int(seed)%3,
				TuplesPerRelation: 4,
				Domain:            3,
				NullRate:          0.2,
				Seed:              seed,
			}
			if name == "cycle" && cfg.Relations < 3 {
				cfg.Relations = 3
			}
			db, err := g(cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := formatAll(db, naive.FullDisjunction(db))
			for _, strategy := range []InitStrategy{InitSingletons, InitSeeded, InitProjected} {
				for _, useIndex := range []bool{false, true} {
					got, _, err := FullDisjunction(db, JCC, Options{Strategy: strategy, UseIndex: useIndex})
					if err != nil {
						t.Fatal(err)
					}
					gotStr := formatAll(db, got)
					if !equalStrings(gotStr, want) {
						t.Errorf("%s seed=%d strategy=%s index=%v:\n got  %v\n want %v",
							name, seed, strategy, useIndex, gotStr, want)
					}
				}
			}
		}
	}
}

// TestNoDuplicates verifies Theorem 4.6 on synthetic data: each tuple
// set is emitted exactly once.
func TestNoDuplicates(t *testing.T) {
	cfg := workload.Config{Relations: 5, TuplesPerRelation: 6, Domain: 3, NullRate: 0.15, Seed: 42}
	db, err := workload.Random(cfg, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for _, strategy := range []InitStrategy{InitSingletons, InitSeeded, InitProjected} {
		got, _, err := FullDisjunction(db, JCC, Options{Strategy: strategy, UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[string]bool)
		for _, s := range got {
			if seen[s.Key()] {
				t.Errorf("strategy %s: duplicate result %s", strategy, s.Format(db))
			}
			seen[s.Key()] = true
		}
	}
}

// TestOutputInvariants verifies the three conditions of Definition 2.1
// directly on the algorithm output: every result is JCC; no result is
// contained in another; every JCC singleton-pair extension is covered
// (spot-checked via the oracle's enumeration on small instances).
func TestOutputInvariants(t *testing.T) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: 5, Domain: 3, NullRate: 0.25, Seed: 7}
	db, err := workload.Cycle(cfg)
	if err != nil {
		t.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if !u.JCC(s) {
			t.Errorf("result %s is not JCC", s.Format(db))
		}
	}
	for i, a := range got {
		for j, b := range got {
			if i != j && b.ContainsAll(a) {
				t.Errorf("result %s contained in %s", a.Format(db), b.Format(db))
			}
		}
	}
	// Condition (iii): every JCC tuple set is contained in some result.
	for _, s := range naive.EnumerateConnected(u, func(s *tupleset.Set) bool { return u.JCC(s) }) {
		covered := false
		for _, r := range got {
			if r.ContainsAll(s) {
				covered = true
				break
			}
		}
		if !covered {
			t.Errorf("JCC set %s not represented in FD", s.Format(db))
		}
	}
}

// TestStreamEarlyStop checks PINC behaviour: closing the cursor after
// k results returns k distinct members of the full disjunction without
// computing the rest.
func TestStreamEarlyStop(t *testing.T) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: 8, Domain: 4, NullRate: 0.1, Seed: 3}
	db, err := workload.Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	full, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullKeys := make(map[string]bool, len(full))
	for _, s := range full {
		fullKeys[s.Key()] = true
	}
	for _, k := range []int{1, 3, 7, len(full)} {
		c, err := NewCursor(context.Background(), db, JCC, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got []*tupleset.Set
		for r, ok := c.Next(); ok; r, ok = c.Next() {
			if got = append(got, r.Set); len(got) == k {
				break
			}
		}
		c.Close()
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("k=%d: got %d results", k, len(got))
		}
		seen := make(map[string]bool)
		for _, s := range got {
			if !fullKeys[s.Key()] {
				t.Errorf("k=%d: streamed set %s not in FD", k, s.Format(db))
			}
			if seen[s.Key()] {
				t.Errorf("k=%d: duplicate streamed set %s", k, s.Format(db))
			}
			seen[s.Key()] = true
		}
	}
}

// TestCorollary47 checks the space bound: the number of tuple sets
// resident in Complete and Incomplete never exceeds |FDi(R)|.
func TestCorollary47(t *testing.T) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: 6, Domain: 3, NullRate: 0.2, Seed: 11}
	db, err := workload.Star(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for seed := 0; seed < db.NumRelations(); seed++ {
		e, err := NewEnumerator(tupleset.NewUniverse(db), JCC, seed, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, stats := e.All(), e.Stats()
		if stats.MaxResident > len(got) {
			t.Errorf("seed %d: max resident %d exceeds |FDi| = %d", seed, stats.MaxResident, len(got))
		}
		if stats.Iterations != len(got) {
			t.Errorf("seed %d: iterations %d != results %d (Example 4.1 property)",
				seed, stats.Iterations, len(got))
		}
	}
}

// TestBlockExecutionEquivalence checks that block-based execution (§7)
// produces the same output while reducing simulated page reads.
func TestBlockExecutionEquivalence(t *testing.T) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: 10, Domain: 4, NullRate: 0.1, Seed: 9}
	db, err := workload.Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	base, baseStats, err := FullDisjunction(db, JCC, Options{BlockSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{2, 5, 10, 64} {
		got, stats, err := FullDisjunction(db, JCC, Options{BlockSize: bs})
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(formatAll(db, got), formatAll(db, base)) {
			t.Errorf("block size %d changes output", bs)
		}
		if stats.PageReads >= baseStats.PageReads {
			t.Errorf("block size %d: page reads %d not below tuple-at-a-time %d",
				bs, stats.PageReads, baseStats.PageReads)
		}
	}
}

// TestIndexReducesListScans checks the §7 index ablation: on a workload
// with many results, indexing must reduce the Complete/Incomplete scan
// counter without changing the output.
func TestIndexReducesListScans(t *testing.T) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: 12, Domain: 3, NullRate: 0.1, Seed: 5}
	db, err := workload.Chain(cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, plainStats, err := FullDisjunction(db, JCC, Options{UseIndex: false})
	if err != nil {
		t.Fatal(err)
	}
	indexed, indexedStats, err := FullDisjunction(db, JCC, Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if !equalStrings(formatAll(db, plain), formatAll(db, indexed)) {
		t.Fatal("index changes output")
	}
	if indexedStats.ListScans >= plainStats.ListScans {
		t.Errorf("indexed list scans %d not below unindexed %d",
			indexedStats.ListScans, plainStats.ListScans)
	}
}

func TestEnumeratorErrors(t *testing.T) {
	db := workload.Tourist()
	u := tupleset.NewUniverse(db)
	if _, err := NewEnumerator(u, JCC, -1, Options{}); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := NewEnumerator(u, JCC, 3, Options{}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	// Seeded enumerator rejects seeds lacking the seed-relation tuple.
	s := u.Singleton(relation.Ref{Rel: 1, Idx: 0})
	if _, err := NewSeededEnumerator(u, JCC, 0, Options{}, []*tupleset.Set{s}, 0); err == nil {
		t.Error("seed set without seed-relation tuple accepted")
	}
}

// TestStatsWork pins the work measure to its three counters: no other
// counter moves it, and it adds up over Stats.Add.
func TestStatsWork(t *testing.T) {
	a := Stats{Iterations: 2, Emitted: 2, JCCChecks: 3, TuplesScanned: 7, ListScans: 5, PageReads: 11,
		IndexProbes: 13, TuplesSkipped: 17, SigHits: 19, SigRebuilds: 23, MaxResident: 29}
	if got := a.Work(); got != 15 {
		t.Errorf("Work() = %d, want 3+5+7 = 15", got)
	}
	b := Stats{JCCChecks: 1, ListScans: 2, TuplesScanned: 4}
	sum := a
	sum.Add(b)
	if got := sum.Work(); got != a.Work()+b.Work() {
		t.Errorf("Work of a sum = %d, want %d", got, a.Work()+b.Work())
	}
}
