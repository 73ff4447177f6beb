package core

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

func cursorDB(t *testing.T) *relation.Database {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 10, Domain: 3, NullRate: 0.1, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCursorMatchesStream checks that the task-walking cursor
// reproduces the textbook streams exactly — results, order and
// counters — for every strategy/index combination. The restart stream
// runs the suffix pass enumerators directly; the §7 seeded/projected
// streams seed pass i from the printed results and drop those
// contained in a printed set. The restart stream must also be
// multiset-equal to the full-database passes filtered by minimal
// relation (fullPassStream).
func TestCursorMatchesStream(t *testing.T) {
	db := cursorDB(t)
	variants := []Options{
		{},
		{UseIndex: true},
		{UseIndex: true, UseJoinIndex: true},
		{UseIndex: true, Strategy: InitSeeded},
		{UseIndex: true, UseJoinIndex: true, Strategy: InitProjected},
	}
	for _, opts := range variants {
		want, wantStats := textbookStream(t, db, opts)

		c, err := NewCursor(context.Background(), db, JCC, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for {
			r, ok := c.Next()
			if !ok {
				break
			}
			got = append(got, r.Set.Key())
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if len(got) != len(want) {
			t.Fatalf("%+v: cursor emitted %d results, stream %d", opts, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: sequence diverges at %d", opts, i)
			}
		}
		if cs := c.Stats(); cs != wantStats {
			t.Errorf("%+v: cursor stats %+v, stream stats %+v", opts, cs, wantStats)
		}
		if opts.Strategy == InitSingletons {
			assertSameMultiset(t, fmt.Sprintf("%+v", opts), got, fullPassStream(t, db, opts))
		}
	}
}

// fullPassStream is the restart strategy before suffix passes:
// INCREMENTALFD(R, i) over the whole database for every i, keeping the
// results whose minimal relation is i. It returns the kept keys in
// order.
func fullPassStream(t *testing.T, db *relation.Database, opts Options) []string {
	t.Helper()
	u := tupleset.NewUniverse(db)
	var keys []string
	for pass := 0; pass < db.NumRelations(); pass++ {
		e, err := NewEnumerator(u, JCC, pass, opts)
		if err != nil {
			t.Fatal(err)
		}
		for s, ok := e.Next(); ok; s, ok = e.Next() {
			if int(s.Refs()[0].Rel) == pass {
				keys = append(keys, s.Key())
			}
		}
	}
	return keys
}

// assertSameMultiset fails t unless got and want hold the same keys
// with the same multiplicities.
func assertSameMultiset(t *testing.T, label string, got, want []string) {
	t.Helper()
	count := make(map[string]int, len(want))
	for _, k := range want {
		count[k]++
	}
	for _, k := range got {
		count[k]--
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("%s: multiplicity of %s differs by %d (got %d results, want %d)", label, k, -n, len(got), len(want))
		}
	}
}

// textbookStream runs the per-relation passes directly on enumerators,
// returning the emitted keys and the summed counters.
func textbookStream(t *testing.T, db *relation.Database, opts Options) ([]string, Stats) {
	t.Helper()
	u := tupleset.NewUniverse(db)
	var total Stats
	var printed *CompleteStore
	if opts.Strategy != InitSingletons {
		printed = NewCompleteStore(u, true)
	}
	var keys []string
	for pass := 0; pass < db.NumRelations(); pass++ {
		var e *Enumerator
		var err error
		if printed == nil {
			e, err = NewPassEnumerator(u, JCC, pass, 0, db.Relation(pass).Len(), opts)
		} else {
			e, err = NewSeededEnumerator(u, JCC, pass, opts, seedInit(u, pass, opts, printed, &total), pass)
		}
		if err != nil {
			t.Fatal(err)
		}
		for s, ok := e.Next(); ok; s, ok = e.Next() {
			if printed != nil {
				anchor, _ := s.Member(pass)
				if printed.ContainsSuperset(s, anchor, &total) {
					continue
				}
				printed.Add(s)
			}
			keys = append(keys, s.Key())
		}
		es := e.Stats()
		es.Emitted = 0
		total.Add(es)
	}
	total.Emitted = len(keys)
	return keys, total
}

// TestCursorCloseMidway checks that an abandoned cursor stops emitting
// and folds the in-flight pass into its counters.
func TestCursorCloseMidway(t *testing.T) {
	db := cursorDB(t)
	c, err := NewCursor(context.Background(), db, JCC, Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatal("enumeration exhausted before the cut-off")
		}
	}
	c.Close()
	if _, ok := c.Next(); ok {
		t.Fatal("Next after Close emitted a result")
	}
	s := c.Stats()
	if s.Emitted != 3 {
		t.Errorf("closed cursor Emitted = %d, want 3", s.Emitted)
	}
	if s.JCCChecks == 0 || s.TuplesScanned == 0 {
		t.Errorf("in-flight pass counters not folded: %+v", s)
	}
	c.Close() // idempotent
}

// TestCursorNoGoroutineLeak asserts the leak contract of the cursor
// design: abandoning enumerations mid-flight leaves no goroutine
// behind, because a suspended enumeration is explicit state, not a
// producer goroutine.
func TestCursorNoGoroutineLeak(t *testing.T) {
	db := cursorDB(t)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		c, err := NewCursor(context.Background(), db, JCC, Options{UseIndex: true, UseJoinIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		c.Next()
		c.Next()
		c.Close()
	}
	assertNoExtraGoroutines(t, before)
}

// assertNoExtraGoroutines retries briefly so unrelated runtime
// goroutines winding down don't flake the comparison.
func assertNoExtraGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBlocksPinnedStats pins the engine work of a block-based drain
// (§7, BlockSize 4, no indexes) to literal Stats, so PageReads and
// every other counter of the block path stay fixed.
func TestBlocksPinnedStats(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, ImpMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCursor(context.Background(), db, JCC, Options{BlockSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, ok := c.Next(); ok; _, ok = c.Next() {
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	want := Stats{Iterations: 155, Emitted: 103, JCCChecks: 15373, TuplesScanned: 9545, ListScans: 49311, PageReads: 2410, IndexProbes: 0, TuplesSkipped: 0, SigHits: 7174, SigRebuilds: 792, MaxResident: 100}
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v\nwant    %+v", got, want)
	}
}

// TestEnginePinnedStats pins the engine work of the exact
// configurations fd.Open does not run (it always runs the restart
// passes with both indexes) to literal Stats on the 4×8 chain: the §7
// seeded and projected initialisations, and a first-5 prefix with the
// hash index alone. Each strategy must also produce the restart
// strategy's full disjunction: FD(R) does not depend on how the passes
// are initialised.
func TestEnginePinnedStats(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, ImpMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	indexed := Options{UseIndex: true, UseJoinIndex: true}
	restart, _, err := FullDisjunction(db, JCC, indexed)
	if err != nil {
		t.Fatal(err)
	}
	want := formatAll(db, restart)
	cases := []struct {
		name  string
		opts  Options
		k     int // results pulled; 0 drains
		stats Stats
	}{
		{"exact/seeded", Options{UseIndex: true, UseJoinIndex: true, Strategy: InitSeeded}, 0,
			Stats{Iterations: 403, Emitted: 103, JCCChecks: 5351, TuplesScanned: 3290, ListScans: 9466, PageReads: 3290, IndexProbes: 1520, TuplesSkipped: 13398, SigHits: 3081, SigRebuilds: 808, MaxResident: 103}},
		{"exact/projected", Options{UseIndex: true, UseJoinIndex: true, Strategy: InitProjected}, 0,
			Stats{Iterations: 155, Emitted: 103, JCCChecks: 2438, TuplesScanned: 1802, ListScans: 3824, PageReads: 1802, IndexProbes: 782, TuplesSkipped: 12214, SigHits: 1184, SigRebuilds: 404, MaxResident: 100}},
		{"exact/K/hash-index", Options{UseIndex: true}, 5,
			Stats{Iterations: 5, Emitted: 5, JCCChecks: 465, TuplesScanned: 384, ListScans: 144, PageReads: 384, IndexProbes: 0, TuplesSkipped: 0, SigHits: 135, SigRebuilds: 59, MaxResident: 34}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur, err := NewCursor(context.Background(), db, JCC, c.opts)
			if err != nil {
				t.Fatal(err)
			}
			var got []*tupleset.Set
			for c.k == 0 || len(got) < c.k {
				r, ok := cur.Next()
				if !ok {
					break
				}
				got = append(got, r.Set)
			}
			cur.Close()
			if err := cur.Err(); err != nil {
				t.Fatal(err)
			}
			if stats := cur.Stats(); stats != c.stats {
				t.Errorf("stats drifted:\n got  %#v\n want %#v", stats, c.stats)
			}
			if c.k == 0 && fmt.Sprint(formatAll(db, got)) != fmt.Sprint(want) {
				t.Errorf("%s full disjunction differs from the restart strategy's", c.name)
			}
		})
	}
}
