package batch

import (
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/workload"
)

func TestBatchMatchesOracleAndCore(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db, err := workload.Random(workload.Config{
			Relations: 4, TuplesPerRelation: 4, Domain: 3, NullRate: 0.2, Seed: seed}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		got, stats := FullDisjunction(db)
		var gotStr []string
		for _, s := range got {
			gotStr = append(gotStr, s.Format(db))
		}
		sort.Strings(gotStr)

		var wantStr []string
		for _, s := range naive.FullDisjunction(db) {
			wantStr = append(wantStr, s.Format(db))
		}
		sort.Strings(wantStr)
		if len(gotStr) != len(wantStr) {
			t.Fatalf("seed %d: batch %v, oracle %v", seed, gotStr, wantStr)
		}
		for i := range wantStr {
			if gotStr[i] != wantStr[i] {
				t.Fatalf("seed %d: batch %v, oracle %v", seed, gotStr, wantStr)
			}
		}
		// The core algorithm agrees too.
		coreSets, _, err := core.FullDisjunction(db, core.JCC, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(coreSets) != len(got) {
			t.Errorf("seed %d: core %d results, batch %d", seed, len(coreSets), len(got))
		}
		// Candidates must exceed output size whenever a result has >1
		// tuple (per-tuple recomputation).
		multi := false
		for _, s := range got {
			if s.Len() > 1 {
				multi = true
			}
		}
		if multi && stats.Candidates <= len(got) {
			t.Errorf("seed %d: candidates %d not above output %d", seed, stats.Candidates, len(got))
		}
	}
}

func TestBatchTourist(t *testing.T) {
	db := workload.Tourist()
	got, stats := FullDisjunction(db)
	if len(got) != 6 {
		t.Fatalf("batch FD has %d results, want 6", len(got))
	}
	// Each result is re-derived once per contained tuple: the six
	// results of Table 2 hold 13 tuples in total.
	if stats.Candidates != 13 {
		t.Errorf("candidates = %d, want 13 (sum of result sizes)", stats.Candidates)
	}
	if stats.SweepComparisons == 0 {
		t.Error("final sweep did not run")
	}
}

func TestBatchDoesMoreWorkThanIncremental(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	_, batchStats := FullDisjunction(db)
	_, coreStats, err := core.FullDisjunction(db, core.JCC, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	if batchStats.JCCChecks <= coreStats.JCCChecks {
		t.Errorf("batch JCC checks %d not above incremental %d",
			batchStats.JCCChecks, coreStats.JCCChecks)
	}
}
