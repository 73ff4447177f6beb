package rank

import (
	"context"

	"runtime"
	"testing"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/workload"
)

func cursorDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.Star(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.05, ImpMax: 20, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCursorMatchesStreamRanked checks that the two configurations of
// the ranked cursor agree where their join predicates do: under the
// exact similarity at τ = 1, A(T) ≥ τ holds exactly for the JCC sets,
// so the approximate stream must reproduce the exact ranked stream —
// same sets, same ranks, same order.
func TestCursorMatchesStreamRanked(t *testing.T) {
	db := cursorDB(t)
	for _, f := range []Func{FMax{}, PairSum()} {
		opts := core.Options{UseIndex: true}
		want := collect(t, newRanked(t, db, f, opts), 0, 0)
		got := collect(t, newApproxRanked(t, db, &approx.Amin{S: approx.ExactSim{}}, 1, f), 0, 0)
		if len(got) != len(want) {
			t.Fatalf("%s: approx cursor emitted %d, exact cursor %d", f.Name(), len(got), len(want))
		}
		for i := range got {
			if got[i].Rank != want[i].Rank || got[i].Set.Key() != want[i].Set.Key() {
				t.Fatalf("%s: sequence diverges at %d", f.Name(), i)
			}
		}
	}
}

// TestCursorRejectsNonDetermined checks that a ranking function which is
// not c-determined is refused.
func TestCursorRejectsNonDetermined(t *testing.T) {
	if _, err := NewCursor(context.Background(), cursorDB(t), core.JCC, FSum{}, core.Options{}); err == nil {
		t.Fatal("NewCursor accepted a non-c-determined function")
	}
}

// TestRankedCursorNoGoroutineLeak asserts that abandoning ranked
// enumerations mid-flight leaks no goroutine.
func TestRankedCursorNoGoroutineLeak(t *testing.T) {
	db := cursorDB(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 20; i++ {
		c, err := NewCursor(context.Background(), db, core.JCC, FMax{}, core.Options{UseIndex: true})
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
