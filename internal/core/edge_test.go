package core

import (
	"context"
	"sort"
	"testing"

	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/storage"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// TestSingleRelation: the full disjunction of one relation is the set
// of its tuples as singletons (no two tuples of one relation combine).
func TestSingleRelation(t *testing.T) {
	r := relation.MustRelation("R", relation.MustSchema("A", "B"))
	r.MustAppend("t0", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	r.MustAppend("t1", map[relation.Attribute]relation.Value{"B": relation.V("2")})
	db := relation.MustDatabase(r)
	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("FD over one relation has %d members, want 2", len(got))
	}
	for _, s := range got {
		if s.Len() != 1 {
			t.Errorf("non-singleton %s", s.Format(db))
		}
	}
}

// TestEmptyRelation: an empty relation contributes nothing but does not
// break the other passes.
func TestEmptyRelation(t *testing.T) {
	r1 := relation.MustRelation("R1", relation.MustSchema("A"))
	r1.MustAppend("x", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	empty := relation.MustRelation("E", relation.MustSchema("A", "B"))
	db := relation.MustDatabase(r1, empty)
	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Len() != 1 {
		t.Fatalf("FD = %v", got)
	}
	// FDi over the empty relation is empty.
	e, err := NewEnumerator(tupleset.NewUniverse(db), JCC, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fdE := e.All(); len(fdE) != 0 {
		t.Errorf("FD over empty seed relation = %d members", len(fdE))
	}
}

// TestDisconnectedSchema: with two schema components, results never mix
// components, and the union over both components matches the oracle.
func TestDisconnectedSchema(t *testing.T) {
	r1 := relation.MustRelation("R1", relation.MustSchema("A", "B"))
	r1.MustAppend("x0", map[relation.Attribute]relation.Value{"A": relation.V("1"), "B": relation.V("2")})
	r2 := relation.MustRelation("R2", relation.MustSchema("B", "C"))
	r2.MustAppend("y0", map[relation.Attribute]relation.Value{"B": relation.V("2"), "C": relation.V("3")})
	r3 := relation.MustRelation("R3", relation.MustSchema("X"))
	r3.MustAppend("z0", map[relation.Attribute]relation.Value{"X": relation.V("9")})
	db := relation.MustDatabase(r1, r2, r3)

	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := naive.FullDisjunction(db)
	if len(got) != len(want) {
		t.Fatalf("FD = %d members, oracle %d", len(got), len(want))
	}
	for _, s := range got {
		if s.HasRelation(2) && s.Len() > 1 {
			t.Errorf("result mixes disconnected components: %s", s.Format(db))
		}
	}
}

// TestAllNullJoinValues: tuples whose join attributes are all null can
// never combine; every result is a singleton.
func TestAllNullJoinValues(t *testing.T) {
	r1 := relation.MustRelation("R1", relation.MustSchema("J", "P1"))
	r1.MustAppend("x0", map[relation.Attribute]relation.Value{"P1": relation.V("a")})
	r2 := relation.MustRelation("R2", relation.MustSchema("J", "P2"))
	r2.MustAppend("y0", map[relation.Attribute]relation.Value{"P2": relation.V("b")})
	db := relation.MustDatabase(r1, r2)
	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("FD = %d members, want 2 singletons", len(got))
	}
	for _, s := range got {
		if s.Len() != 1 {
			t.Errorf("⊥ join values combined: %s", s.Format(db))
		}
	}
}

// TestDuplicateTuples: identical tuples in one relation stay distinct
// tuple sets (tuple-set semantics, unlike padded-tuple semantics).
func TestDuplicateTuples(t *testing.T) {
	r1 := relation.MustRelation("R1", relation.MustSchema("A"))
	r1.MustAppend("x0", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	r1.MustAppend("x1", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	r2 := relation.MustRelation("R2", relation.MustSchema("A"))
	r2.MustAppend("y0", map[relation.Attribute]relation.Value{"A": relation.V("1")})
	db := relation.MustDatabase(r1, r2)
	got, _, err := FullDisjunction(db, JCC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// {x0,y0} and {x1,y0}.
	if len(got) != 2 {
		names := make([]string, len(got))
		for i, s := range got {
			names[i] = s.Format(db)
		}
		t.Fatalf("FD = %v, want 2 pair sets", names)
	}
}

// TestParallelMatchesSequential: the concurrent driver produces exactly
// the sequential output across workloads and worker counts.
func TestParallelMatchesSequential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, err := workload.Random(workload.Config{
			Relations: 5, TuplesPerRelation: 6, Domain: 3, NullRate: 0.2, Seed: seed}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := FullDisjunction(db, JCC, Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		wantStr := formatAll(db, want)
		for _, workers := range []int{1, 2, 8} {
			got, stats, err := parallelFD(db, Options{UseIndex: true}, workers)
			if err != nil {
				t.Fatal(err)
			}
			gotStr := formatAll(db, got)
			if !equalStrings(gotStr, wantStr) {
				t.Errorf("seed %d workers %d: parallel output differs", seed, workers)
			}
			if stats.Emitted != len(want) {
				t.Errorf("seed %d: emitted %d, want %d", seed, stats.Emitted, len(want))
			}
		}
	}
}

func TestParallelRejectsUnsupportedOptions(t *testing.T) {
	db := workload.Tourist()
	if _, _, err := parallelFD(db, Options{Strategy: InitSeeded}, 2); err == nil {
		t.Error("seeded strategy accepted in parallel mode")
	}
	if _, _, err := parallelFD(db, Options{BlockSize: 2, Pool: storage.NewBufferPool(4)}, 2); err == nil {
		t.Error("shared buffer pool accepted in parallel mode")
	}
}

// TestBufferPoolIntegration: fetching pages through a buffer pool does
// not change the output; a pool large enough to hold the database turns
// all repeated-scan page reads into hits, and pool capacity trades
// misses monotonically.
func TestBufferPoolIntegration(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 16, Domain: 4, NullRate: 0.1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	const block = 4
	base, baseStats, err := FullDisjunction(db, JCC, Options{BlockSize: block})
	if err != nil {
		t.Fatal(err)
	}
	totalPages := 0
	for i := 0; i < db.NumRelations(); i++ {
		totalPages += (db.Relation(i).Len() + block - 1) / block
	}
	prevReads := baseStats.PageReads
	for _, capacity := range []int{1, totalPages / 2, totalPages} {
		pool := storage.NewBufferPool(capacity)
		got, stats, err := FullDisjunction(db, JCC, Options{BlockSize: block, Pool: pool})
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(formatAll(db, got), formatAll(db, base)) {
			t.Fatalf("capacity %d changed the output", capacity)
		}
		if stats.PageReads > prevReads {
			t.Errorf("capacity %d: page reads %d exceed smaller-capacity %d",
				capacity, stats.PageReads, prevReads)
		}
		prevReads = stats.PageReads
		if pool.Hits()+pool.Misses() == 0 {
			t.Error("pool never consulted")
		}
	}
	// A pool covering the whole database only misses cold pages.
	pool := storage.NewBufferPool(totalPages)
	_, stats, err := FullDisjunction(db, JCC, Options{BlockSize: block, Pool: pool})
	if err != nil {
		t.Fatal(err)
	}
	if stats.PageReads != int64(totalPages) {
		t.Errorf("warm pool: %d page reads, want %d (cold misses only)",
			stats.PageReads, totalPages)
	}
	if pool.HitRate() < 0.9 {
		t.Errorf("warm pool hit rate %.2f too low", pool.HitRate())
	}
}

// parallelFD drains a parallel cursor over db.
func parallelFD(db *relation.Database, opts Options, workers int) ([]*tupleset.Set, Stats, error) {
	c, err := NewParallelCursor(context.Background(), db, JCC, opts, workers)
	if err != nil {
		return nil, Stats{}, err
	}
	defer c.Close()
	var out []*tupleset.Set
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		out = append(out, r.Set)
	}
	return out, c.Stats(), c.Err()
}

// TestSortedParallelOutputDeterministic: repeated parallel runs return
// identical output once sorted.
func TestSortedParallelOutputDeterministic(t *testing.T) {
	db, err := workload.Star(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := parallelFD(db, Options{UseIndex: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := formatAll(db, first)
	if !sort.StringsAreSorted(a) {
		t.Error("helper output not sorted") // formatAll sorts; sanity
	}
	for trial := 0; trial < 3; trial++ {
		again, _, err := parallelFD(db, Options{UseIndex: true}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !equalStrings(formatAll(db, again), a) {
			t.Fatal("parallel output not deterministic")
		}
	}
}
