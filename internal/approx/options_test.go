package approx

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// cleanDB builds a chain workload with exact join values and
// probabilities at 1, so Amin over ExactSim mirrors the exact engine.
func cleanDB(t *testing.T, seed int64) *relation.Database {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func multiset(sets []*tupleset.Set) map[string]int {
	out := make(map[string]int, len(sets))
	for _, s := range sets {
		out[s.Key()]++
	}
	return out
}

// dirtyDB builds a dirty chain: misspelled join values and
// probabilities in [0.5, 1], for the graded similarities.
func dirtyDB(t *testing.T, seed int64) *relation.Database {
	t.Helper()
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: seed},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestApproxJoinIndexEngages is the acceptance check for the approx
// join index: for Amin over ExactSim, and Amin and Aprod over
// LevenshteinSim at τ 0.6 and 0.8, enabling UseJoinIndex actually
// routes approximate scans through the candidate source — the probe
// and skip counters move and fewer tuples are scanned — while the
// produced AFD stays set-identical.
func TestApproxJoinIndexEngages(t *testing.T) {
	cases := []struct {
		name string
		db   func(*testing.T, int64) *relation.Database
		a    Join
		tau  float64
	}{
		{"amin/exact", cleanDB, &Amin{S: ExactSim{}}, 0.5},
		{"amin/levenshtein", dirtyDB, &Amin{S: LevenshteinSim{}}, 0.6},
		{"amin/levenshtein", dirtyDB, &Amin{S: LevenshteinSim{}}, 0.8},
		{"aprod/levenshtein", dirtyDB, &Aprod{S: LevenshteinSim{}}, 0.6},
		{"aprod/levenshtein", dirtyDB, &Aprod{S: LevenshteinSim{}}, 0.8},
	}
	for _, c := range cases {
		for _, seed := range []int64{3, 17, 29} {
			where := fmt.Sprintf("%s τ %v seed %d", c.name, c.tau, seed)
			db := c.db(t, seed)
			plain, plainStats, err := core.FullDisjunction(db, qualify(t, c.a, c.tau), core.Options{UseIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			indexed, idxStats, err := core.FullDisjunction(db, qualify(t, c.a, c.tau),
				core.Options{UseIndex: true, UseJoinIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			got, want := multiset(indexed), multiset(plain)
			if len(got) != len(want) {
				t.Fatalf("%s: join index changed the AFD: %d vs %d results", where, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Fatalf("%s: join index changed the AFD at %q", where, k)
				}
			}
			if idxStats.IndexProbes == 0 {
				t.Errorf("%s: UseJoinIndex set but no index probes recorded", where)
			}
			if idxStats.TuplesSkipped == 0 {
				t.Errorf("%s: UseJoinIndex set but no tuples skipped", where)
			}
			if idxStats.TuplesScanned >= plainStats.TuplesScanned {
				t.Errorf("%s: candidate scans visited %d tuples, sweep %d — no reduction",
					where, idxStats.TuplesScanned, plainStats.TuplesScanned)
			}
		}
	}
}

// TestApproxBlockAndPoolAccounting checks that the block size and the
// buffer pool now reach approximate scans: larger blocks read fewer
// simulated pages, and a warm pool absorbs repeat fetches.
func TestApproxBlockAndPoolAccounting(t *testing.T) {
	db := cleanDB(t, 7)
	amin := &Amin{S: ExactSim{}}
	_, tupleAtATime, err := core.FullDisjunction(db, qualify(t, amin, 0.5), core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if tupleAtATime.PageReads == 0 {
		t.Fatal("approx scans record no page reads at all")
	}
	_, blocked, err := core.FullDisjunction(db, qualify(t, amin, 0.5), core.Options{UseIndex: true, BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	if blocked.PageReads >= tupleAtATime.PageReads {
		t.Errorf("block size 4 read %d pages, tuple-at-a-time %d — no reduction",
			blocked.PageReads, tupleAtATime.PageReads)
	}
	pool := storage.NewBufferPool(1024)
	_, pooled, err := core.FullDisjunction(db, qualify(t, amin, 0.5),
		core.Options{UseIndex: true, BlockSize: 4, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if pooled.PageReads >= blocked.PageReads {
		t.Errorf("warm buffer pool read %d pages, poolless run %d — no hits",
			pooled.PageReads, blocked.PageReads)
	}
}
