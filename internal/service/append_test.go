package service

import (
	"context"
	"errors"
	"maps"
	"slices"
	"testing"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/store/faultfs"
	"repro/internal/workload"
)

// scratchKeys enumerates db from scratch and returns the result
// multiset as canonical keys.
func scratchKeys(t *testing.T, db *relation.Database) map[string]int {
	t.Helper()
	sets, _, err := core.FullDisjunction(db, core.JCC, core.Options{UseIndex: true, UseJoinIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int)
	for _, s := range sets {
		out[s.Key()]++
	}
	return out
}

func sameKeys(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct results, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: result %q appears %d times, want %d", label, k, got[k], n)
		}
	}
}

// TestAppendPatchesCache: an append must patch the drained result
// cache across the fingerprint transition — the repeat query serves
// from cache AND sees the post-append result set.
func TestAppendPatchesCache(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	db := testDB(t, "chain", 5)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	oldFP := db.Fingerprint()
	q1, err := svc.StartQuery(context.Background(), "d", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q1, 7)
	if svc.Stats().CacheEntries != 1 {
		t.Fatalf("cache entries = %d, want 1", svc.Stats().CacheEntries)
	}

	donor := testDB(t, "chain", 6)
	batch := []relation.Tuple{*donor.Relation(0).Tuple(0), *donor.Relation(0).Tuple(1)}
	info, err := svc.AppendRows("d", db.Relation(0).Name(), batch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Tuples != db.NumTuples()+2 {
		t.Fatalf("post-append tuples = %d, want %d", info.Tuples, db.NumTuples()+2)
	}
	newDB, _ := svc.Database("d")
	if newDB.Fingerprint() == oldFP {
		t.Fatal("fingerprint did not roll across the append")
	}

	// The patched entry is keyed by the new fingerprint; the old key is
	// gone (no other database carries the old content).
	if got := svc.Stats().CacheEntries; got != 1 {
		t.Fatalf("cache entries after append = %d, want 1 (patched, not duplicated)", got)
	}
	q2, err := svc.StartQuery(context.Background(), "d", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Fatal("append invalidated the result cache instead of patching it")
	}
	sameKeys(t, "patched cache", keysOf(drain(t, q2, 7)), scratchKeys(t, newDB))
}

// TestAppendDropsUnpatchableCacheEntries: ranked and bounded lists
// cannot be patched by a delta; an append must drop them rather than
// leave them reachable.
func TestAppendDropsUnpatchableCacheEntries(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	db := testDB(t, "chain", 5)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fd.Query{
		{Mode: fd.ModeRanked, Rank: "fmax"},
		{K: 2},
	} {
		q, err := svc.StartQuery(context.Background(), "d", spec)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, q, 7)
	}
	if got := svc.Stats().CacheEntries; got != 2 {
		t.Fatalf("cache entries = %d, want 2", got)
	}
	donor := testDB(t, "chain", 6)
	if _, err := svc.AppendRows("d", db.Relation(0).Name(),
		[]relation.Tuple{*donor.Relation(0).Tuple(0)}); err != nil {
		t.Fatal(err)
	}
	if got := svc.Stats().CacheEntries; got != 0 {
		t.Fatalf("cache entries after append = %d, want 0 (unpatchable lists dropped)", got)
	}
}

// TestFollowSubscription: a follow session receives each append's
// delta, and patching the followed base with the delivered batches
// reproduces the post-append full disjunction.
func TestFollowSubscription(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	db := testDB(t, "chain", 7)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "d", fd.Query{Follow: true})
	if err != nil {
		t.Fatal(err)
	}
	if !q.IsFollow() {
		t.Fatal("session is not a follow subscription")
	}
	live := drain(t, q, 5)

	donor := testDB(t, "chain", 8)
	relName := db.Relation(1).Name()
	batch := []relation.Tuple{*donor.Relation(1).Tuple(0), *donor.Relation(1).Tuple(1)}
	if _, err := svc.AppendRows("d", relName, batch); err != nil {
		t.Fatal(err)
	}
	select {
	case <-q.FollowSignal():
	case <-time.After(5 * time.Second):
		t.Fatal("no follow signal after append")
	}
	batches, closed := q.FollowBatches()
	if closed {
		t.Fatal("subscription closed by append")
	}
	if len(batches) != 1 {
		t.Fatalf("delivered %d batches, want 1", len(batches))
	}
	live, _ = delta.Patch(batches[0].Delta, live, resultSet, resultOf)
	newDB, _ := svc.Database("d")
	sameKeys(t, "followed", keysOf(live), scratchKeys(t, newDB))

	// Closing the session ends the subscription; later appends deliver
	// nothing to it.
	q.Close()
	if _, closed := q.FollowBatches(); !closed {
		t.Fatal("subscription still open after Close")
	}
	if _, err := svc.AppendRows("d", relName,
		[]relation.Tuple{*donor.Relation(1).Tuple(2)}); err != nil {
		t.Fatal(err)
	}
	if batches, _ := q.FollowBatches(); len(batches) != 0 {
		t.Fatalf("closed subscription received %d batches", len(batches))
	}
}

// TestFollowValidation: follow composes only with unbounded exact and
// approx specs.
func TestFollowValidation(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("d", testDB(t, "chain", 7)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fd.Query{
		{Mode: fd.ModeRanked, Rank: "fmax", Follow: true},
		{K: 3, Follow: true},
	} {
		if _, err := svc.StartQuery(context.Background(), "d", spec); err == nil {
			t.Fatalf("spec %+v: follow accepted, want validation error", spec)
		}
	}
}

// TestAppendErrorClassification: the append path must expose typed
// errors — unknown names for 404s, storage exhaustion for 500s — so
// the front end classifies on the returned error, not its pre-checks.
func TestAppendErrorClassification(t *testing.T) {
	db := testDB(t, "chain", 9)
	batch := appendBatch(db, "x")

	svc := New(Config{})
	if _, err := svc.AppendRows("nope", "R00", batch); !errors.Is(err, ErrUnknownDatabase) {
		t.Fatalf("unknown database: err = %v, want ErrUnknownDatabase", err)
	}
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AppendRows("d", "nope", batch); !errors.Is(err, ErrUnknownRelation) {
		t.Fatalf("unknown relation: err = %v, want ErrUnknownRelation", err)
	}
	svc.Close()

	// Persistent store faults exhaust the retries and surface wrapped
	// in ErrStorage (an operational failure), with the root cause still
	// reachable.
	fsys := faultfs.New()
	st, err := store.OpenFS("data", fsys)
	if err != nil {
		t.Fatal(err)
	}
	svc2 := New(Config{
		Store: st,
		Sleep: func(time.Duration) { fsys.ArmAfter(1, faultfs.FailOp) },
	})
	defer svc2.Close()
	db2 := testDB(t, "chain", 9)
	if _, err := svc2.AddDatabase("d", db2); err != nil {
		t.Fatal(err)
	}
	fsys.ArmAfter(1, faultfs.FailOp)
	_, err = svc2.AppendRows("d", db2.Relation(0).Name(), appendBatch(db2, "y"))
	if !errors.Is(err, ErrStorage) {
		t.Fatalf("persistent store fault: err = %v, want ErrStorage", err)
	}
	if !errors.Is(err, faultfs.ErrInjected) {
		t.Fatalf("root cause lost: err = %v, want ErrInjected in the chain", err)
	}
}

// TestFollowRuleIsCacheRule holds the one maintainability rule to both
// of its uses: over every mode, K, RankTau and similarity, a spec is
// valid with Follow set exactly when its drained cache entry survives
// an append, and a surviving (patched) list is, as a set, what a fresh
// drain of the extended database returns.
func TestFollowRuleIsCacheRule(t *testing.T) {
	dirty := func(seed int64) *relation.Database {
		db, err := workload.DirtyChain(workload.DirtyConfig{
			Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, ImpMax: 10, Seed: seed},
			ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	var specs []fd.Query
	for _, mode := range []fd.Mode{fd.ModeExact, fd.ModeRanked, fd.ModeApprox, fd.ModeApproxRanked} {
		ranked := mode == fd.ModeRanked || mode == fd.ModeApproxRanked
		approximate := mode == fd.ModeApprox || mode == fd.ModeApproxRanked
		for _, k := range []int{0, 3} {
			for _, rankTau := range []float64{0, 0.5} {
				if rankTau != 0 && !ranked {
					continue
				}
				for _, sim := range []string{"levenshtein", "exact"} {
					q := fd.Query{Mode: mode, K: k, RankTau: rankTau}
					if ranked {
						q.Rank = "fmax"
					}
					if approximate {
						q.Tau, q.Sim = 0.7, sim
					} else if sim != "levenshtein" {
						continue
					}
					specs = append(specs, q)
				}
			}
		}
	}

	svc := New(Config{})
	defer svc.Close()
	db := dirty(17)
	if _, err := svc.AddDatabase("d", db); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := make(map[string][]string)
	for _, spec := range specs {
		q, err := svc.StartQuery(ctx, "d", spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		before[spec.Canonical()] = slices.Sorted(maps.Keys(keysOf(drain(t, q, 4))))
	}
	donor := dirty(18)
	batch := []relation.Tuple{*donor.Relation(0).Tuple(0), *donor.Relation(0).Tuple(1)}
	if _, err := svc.AppendRows("d", db.Relation(0).Name(), batch); err != nil {
		t.Fatal(err)
	}
	ext, _ := svc.Database("d")

	survivors, changed := 0, 0
	for _, spec := range specs {
		follow := spec
		follow.Follow = true
		maintainable := follow.Validate() == nil
		q, err := svc.StartQuery(ctx, "d", spec)
		if err != nil {
			t.Fatalf("%+v: %v", spec, err)
		}
		if q.FromCache() != maintainable {
			t.Fatalf("%+v: cache entry survived the append = %v, but Follow valid = %v",
				spec, q.FromCache(), maintainable)
		}
		got := drain(t, q, 4)
		if !maintainable {
			continue
		}
		survivors++
		rs, err := fd.Open(ctx, ext, spec)
		if err != nil {
			t.Fatal(err)
		}
		var fresh []Result
		for r, ok := rs.Next(); ok; r, ok = rs.Next() {
			fresh = append(fresh, r)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		g, w := slices.Sorted(maps.Keys(keysOf(got))), slices.Sorted(maps.Keys(keysOf(fresh)))
		if !slices.Equal(g, w) {
			t.Fatalf("%+v: patched list %v, fresh drain %v", spec, g, w)
		}
		if !slices.Equal(g, before[spec.Canonical()]) {
			changed++
		}
	}
	if survivors != 3 || changed != survivors {
		t.Fatalf("%d specs survived the append and %d of them changed, want 3 and 3 (exact and both approx sims, unbounded)",
			survivors, changed)
	}
}
