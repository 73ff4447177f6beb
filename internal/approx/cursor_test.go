package approx

import (
	"context"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/workload"
)

func cursorDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 43},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCursorMatchesStream checks that the approximate cursor
// reproduces the stream of the suffix pass enumerators run directly —
// results, order and counters — and that this stream is multiset-equal
// to the full-database passes APPROXINCREMENTALFD(R, i) filtered to
// the results whose minimal relation is i.
func TestCursorMatchesStream(t *testing.T) {
	db := cursorDB(t)
	a := &Amin{S: LevenshteinSim{}}
	const tau = 0.7
	opts := core.Options{UseIndex: true}

	var want, full []string
	var wantStats core.Stats
	for pass := 0; pass < db.NumRelations(); pass++ {
		e, err := NewPassEnumerator(db, pass, 0, db.Relation(pass).Len(), a, tau, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s, ok := e.Next(); ok; s, ok = e.Next() {
			want = append(want, s.Key())
		}
		wantStats.Add(e.Stats())

		fe, err := NewEnumerator(db, pass, a, tau, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s, ok := fe.Next(); ok; s, ok = fe.Next() {
			if first := s.Refs()[0]; int(first.Rel) == pass {
				full = append(full, s.Key())
			}
		}
	}
	wantStats.Emitted = len(want)
	sorted := func(keys []string) []string { return slices.Sorted(slices.Values(keys)) }
	if !slices.Equal(sorted(want), sorted(full)) {
		t.Fatalf("suffix passes give %d results, full passes %d, or the multisets differ", len(want), len(full))
	}

	c, err := NewCursor(context.Background(), db, a, tau, opts)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for {
		s, ok := c.Next()
		if !ok {
			break
		}
		got = append(got, s.Key())
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("cursor emitted %d results, stream %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("sequence diverges at %d", i)
		}
	}
	if cs := c.Stats(); cs != wantStats {
		t.Errorf("cursor stats %+v, stream stats %+v", cs, wantStats)
	}
	c.Close()
}

// TestCursorValidation checks the argument validation of NewCursor.
func TestCursorValidation(t *testing.T) {
	db := cursorDB(t)
	if _, err := NewCursor(context.Background(), db, nil, 0.5, core.Options{}); err == nil {
		t.Error("NewCursor accepted a nil join function")
	}
	if _, err := NewCursor(context.Background(), db, &Amin{S: ExactSim{}}, 0, core.Options{}); err == nil {
		t.Error("NewCursor accepted τ=0")
	}
	if _, err := NewCursor(context.Background(), db, &Amin{S: ExactSim{}}, 1.5, core.Options{}); err == nil {
		t.Error("NewCursor accepted τ>1")
	}
}

// TestParallelRejectsSharedPool checks that the parallel cursor refuses
// a buffer pool its workers would race over.
func TestParallelRejectsSharedPool(t *testing.T) {
	db := cursorDB(t)
	opts := core.Options{BlockSize: 2, Pool: storage.NewBufferPool(4)}
	if c, err := NewParallelCursor(context.Background(), db, &Amin{S: ExactSim{}}, 0.5, opts, 2); err == nil {
		c.Close()
		t.Error("shared buffer pool accepted in parallel mode")
	}
}

// TestApproxCursorNoGoroutineLeak asserts that abandoning approximate
// enumerations mid-flight leaks no goroutine.
func TestApproxCursorNoGoroutineLeak(t *testing.T) {
	db := cursorDB(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c, err := NewCursor(context.Background(), db, &Amin{S: LevenshteinSim{}}, 0.7, core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		c.Next()
		c.Close()
		if _, ok := c.Next(); ok {
			t.Fatal("Next after Close emitted a result")
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestEnginePinnedStats pins the work of an Amin/Levenshtein drain at
// τ 0.7 with the hash index alone, the sweep that fd.Open does not run
// (it always adds the join index), to literal Stats on a 3×8 dirty
// chain.
func TestEnginePinnedStats(t *testing.T) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 23},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	t.Run("approx/sweep", func(t *testing.T) {
		c, err := NewCursor(context.Background(), db, &Amin{S: LevenshteinSim{}}, 0.7, core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.Drain(); err != nil {
			t.Fatal(err)
		}
		want := core.Stats{Iterations: 25, Emitted: 12, JCCChecks: 395, TuplesScanned: 1094, ListScans: 199, PageReads: 1094, IndexProbes: 0, TuplesSkipped: 0, SigHits: 0, SigRebuilds: 0, MaxResident: 12}
		if stats := c.Stats(); stats != want {
			t.Errorf("stats drifted:\n got  %#v\n want %#v", stats, want)
		}
	})
}
