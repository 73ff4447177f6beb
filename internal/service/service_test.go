package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// testDB builds one of the randomized workload shapes.
func testDB(t *testing.T, shape string, seed int64) *relation.Database {
	t.Helper()
	cfg := workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, ImpMax: 10, Seed: seed}
	var (
		db  *relation.Database
		err error
	)
	switch shape {
	case "chain":
		db, err = workload.Chain(cfg)
	case "star":
		db, err = workload.Star(cfg)
	case "clique":
		cfg.TuplesPerRelation = 5
		db, err = workload.Clique(cfg)
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// keysOf renders a result list as a sorted multiset of canonical keys.
func keysOf(results []Result) map[string]int {
	out := make(map[string]int)
	for _, r := range results {
		out[r.Set.Key()]++
	}
	return out
}

// drain pages q to exhaustion with the given page size.
func drain(t *testing.T, q *Query, k int) []Result {
	t.Helper()
	var out []Result
	for {
		page, done, err := q.Next(k)
		if err != nil {
			t.Fatalf("Next(%d): %v", k, err)
		}
		out = append(out, page...)
		if done {
			return out
		}
	}
}

// TestPagingMatchesOneShot checks the acceptance criterion: a
// cursor-paged query returns exactly the one-shot result set, for every
// page size and mode.
func TestPagingMatchesOneShot(t *testing.T) {
	db := testDB(t, "chain", 11)
	oneShot, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var oneShotResults []Result
	for _, s := range oneShot {
		oneShotResults = append(oneShotResults, Result{Set: s})
	}
	want := keysOf(oneShotResults)

	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3, 7, 1000} {
		q, err := svc.StartQuery(context.Background(), "w", fd.Query{})
		if err != nil {
			t.Fatal(err)
		}
		got := keysOf(drain(t, q, k))
		if len(got) != len(want) {
			t.Fatalf("page size %d: %d distinct results, want %d", k, len(got), len(want))
		}
		for key, n := range want {
			if got[key] != n {
				t.Fatalf("page size %d: result multiset differs at %q", k, key)
			}
		}
	}
}

// rankedDrain pulls a ranked engine cursor dry.
func rankedDrain(t *testing.T, c *rank.Cursor, err error) []rank.Result {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var out []rank.Result
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		out = append(out, r)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRankedPagingOrder checks that ranked pages arrive in the same
// order as the ranked engine cursor emits them, ranks included.
func TestRankedPagingOrder(t *testing.T) {
	db := testDB(t, "star", 13)
	c, err := rank.NewCursor(context.Background(), db, rank.FMax{}, core.Options{UseIndex: true})
	want := rankedDrain(t, c, err)

	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeRanked, Rank: "fmax"})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, q, 4)
	if len(got) != len(want) {
		t.Fatalf("ranked paging returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Ranked {
			t.Fatalf("result %d not marked ranked", i)
		}
		if got[i].Rank != want[i].Rank || got[i].Set.Key() != want[i].Set.Key() {
			t.Fatalf("ranked result %d differs: got (%q, %v), want (%q, %v)",
				i, got[i].Set.Key(), got[i].Rank, want[i].Set.Key(), want[i].Rank)
		}
	}
}

// TestApproxPaging checks the approx mode against the one-shot
// approximate full disjunction.
func TestApproxPaging(t *testing.T) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 17},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeApprox, Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	got := keysOf(drain(t, q, 5))

	// One-shot reference through the same Amin+Levenshtein engine.
	ref, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeApprox, Tau: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	want := keysOf(drain(t, ref, 1<<20))
	if len(got) != len(want) {
		t.Fatalf("approx paging returned %d distinct results, want %d", len(got), len(want))
	}
}

// TestResultCache checks that a repeated identical query is served from
// the cache: the hit counter moves, the session reports FromCache, no
// engine work happens, and the replayed pages are identical.
func TestResultCache(t *testing.T) {
	db := testDB(t, "chain", 19)
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	spec := fd.Query{}

	q1, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	first := drain(t, q1, 3)
	st := svc.Stats()
	if st.CacheHits != 0 || st.CacheMisses != 1 || st.CacheEntries != 1 {
		t.Fatalf("after first drain: hits=%d misses=%d entries=%d, want 0/1/1",
			st.CacheHits, st.CacheMisses, st.CacheEntries)
	}
	engineBefore := st.Engine

	q2, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Fatal("repeated query not served from cache")
	}
	second := drain(t, q2, 5)
	st = svc.Stats()
	if st.CacheHits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.CacheHits)
	}
	if st.Engine != engineBefore {
		t.Error("cache-served query performed engine work")
	}
	if len(first) != len(second) {
		t.Fatalf("cached replay length %d, want %d", len(second), len(first))
	}
	for i := range first {
		if first[i].Set.Key() != second[i].Set.Key() {
			t.Fatalf("cached replay differs at %d", i)
		}
	}

	// A different spec must not hit the cache.
	q3, err := svc.StartQuery(context.Background(), "w", fd.Query{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if q3.FromCache() {
		t.Error("differing spec served from cache")
	}
}

// TestCacheSharedAcrossIdenticalDatabases checks the fingerprint
// keying: two identically-generated databases share cached results.
func TestCacheSharedAcrossIdenticalDatabases(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("a", testDB(t, "chain", 23)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDatabase("b", testDB(t, "chain", 23)); err != nil {
		t.Fatal(err)
	}
	qa, err := svc.StartQuery(context.Background(), "a", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, qa, 10)
	qb, err := svc.StartQuery(context.Background(), "b", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if !qb.FromCache() {
		t.Error("identically-fingerprinted database did not share the cache")
	}
}

// TestEmptyResultCacheReplay guards the nil-slice regression: a query
// whose full disjunction is empty must cache and replay cleanly.
func TestEmptyResultCacheReplay(t *testing.T) {
	// One relation with zero tuples: FD is empty.
	rel := relation.MustRelation("R", relation.MustSchema("A"))
	db, err := relation.NewDatabase(rel)
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("empty", db); err != nil {
		t.Fatal(err)
	}
	spec := fd.Query{}

	q1, err := svc.StartQuery(context.Background(), "empty", spec)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, q1, 3); len(got) != 0 {
		t.Fatalf("empty FD returned %d results", len(got))
	}

	q2, err := svc.StartQuery(context.Background(), "empty", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Fatal("empty result list not cached")
	}
	page, done, err := q2.Next(3)
	if err != nil {
		t.Fatalf("replaying an empty cached list: %v", err)
	}
	if len(page) != 0 || !done {
		t.Fatalf("empty replay: %d results, done=%v", len(page), done)
	}
}

// TestDropRefreshReload covers the mutable-workload flow: drop the
// database, Refresh+mutate it, re-register it, and check that the new
// content is served (not a stale cached list keyed by the old
// fingerprint).
func TestDropRefreshReload(t *testing.T) {
	db := testDB(t, "chain", 61)
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	spec := fd.Query{}
	q1, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	before := len(drain(t, q1, 100))

	if err := svc.DropDatabase("w"); err != nil {
		t.Fatal(err)
	}
	if err := svc.DropDatabase("w"); err == nil {
		t.Fatal("double drop succeeded")
	}
	db.Refresh()
	// Append a private-payload tuple joining nothing: |FD| grows by 1.
	last := db.NumRelations() - 1
	rel := db.Relation(last)
	vals := make([]relation.Value, rel.Schema().Len())
	for p, a := range rel.Schema().Attributes() {
		if a[0] == 'P' {
			vals[p] = relation.V("fresh")
		}
	}
	if err := rel.AppendTuple(relation.Tuple{Label: "fresh", Values: vals, Imp: 1, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}

	q2, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if q2.FromCache() {
		t.Fatal("mutated database served from the stale cache")
	}
	after := len(drain(t, q2, 100))
	if after != before+1 {
		t.Fatalf("|FD| after append = %d, want %d", after, before+1)
	}
}

// TestCacheDisabledAndCapped checks the two cache safety valves: a
// negative capacity disables caching entirely, and a result list longer
// than CacheMaxResults is never cached (nor retained in memory).
func TestCacheDisabledAndCapped(t *testing.T) {
	db := testDB(t, "chain", 67)
	spec := fd.Query{}

	off := New(Config{CacheCapacity: -1})
	defer off.Close()
	if _, err := off.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q1, err := off.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q1, 10)
	if st := off.Stats(); st.CacheEntries != 0 {
		t.Fatalf("caching disabled but %d entries cached", st.CacheEntries)
	}
	q2, err := off.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if q2.FromCache() {
		t.Fatal("caching disabled but repeat query served from cache")
	}

	capped := New(Config{CacheMaxResults: 2})
	defer capped.Close()
	if _, err := capped.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q3, err := capped.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(drain(t, q3, 10)); n <= 2 {
		t.Fatalf("workload too small to exercise the cap: %d results", n)
	}
	if st := capped.Stats(); st.CacheEntries != 0 {
		t.Fatalf("over-cap result list cached (%d entries)", st.CacheEntries)
	}
}

// TestAddDatabaseRejectionDoesNotFreeze guards the registration order:
// a rejected AddDatabase must leave the database mutable.
func TestAddDatabaseRejectionDoesNotFreeze(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 71)); err != nil {
		t.Fatal(err)
	}
	fresh := testDB(t, "chain", 73)
	if _, err := svc.AddDatabase("w", fresh); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if fresh.Frozen() {
		t.Fatal("rejected registration froze the database")
	}
	fresh.Relation(0).MutateTuple(0, func(tp *relation.Tuple) { tp.Imp = 2 })
}

// TestIdleEviction checks the idle-timeout sweep with a fake clock.
func TestIdleEviction(t *testing.T) {
	now := time.Unix(1000, 0)
	var mu sync.Mutex
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		mu.Lock()
		now = now.Add(d)
		mu.Unlock()
	}

	svc := New(Config{IdleTimeout: time.Minute, Now: clock})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 29)); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Next(1); err != nil {
		t.Fatal(err)
	}

	advance(30 * time.Second)
	if n := svc.EvictIdle(); n != 0 {
		t.Fatalf("evicted %d sessions before the deadline", n)
	}
	advance(2 * time.Minute)
	if n := svc.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions after the deadline, want 1", n)
	}
	if _, ok := svc.Query(q.ID()); ok {
		t.Error("evicted session still registered")
	}
	if _, _, err := q.Next(1); err == nil {
		t.Error("paging an evicted session should fail")
	}
	if st := svc.Stats(); st.QueriesEvicted != 1 {
		t.Errorf("QueriesEvicted = %d, want 1", st.QueriesEvicted)
	}
}

// TestPropertyConcurrentSessions is the concurrent-service property
// test of the acceptance criteria: N goroutines page interleaved
// cursors over shared databases and must reproduce the one-shot result
// sets exactly, under randomized chain/star/clique workloads. Run in CI
// under -race.
func TestPropertyConcurrentSessions(t *testing.T) {
	shapes := []string{"chain", "star", "clique"}
	svc := New(Config{Workers: 4, CacheCapacity: 2}) // small cache: exercise eviction
	defer svc.Close()

	want := make(map[string]map[string]int)
	for i, shape := range shapes {
		db := testDB(t, shape, int64(41+i))
		name := fmt.Sprintf("db-%s", shape)
		if _, err := svc.AddDatabase(name, db); err != nil {
			t.Fatal(err)
		}
		oneShot, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		keys := make(map[string]int)
		for _, s := range oneShot {
			keys[s.Key()]++
		}
		want[name] = keys
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for round := 0; round < 3; round++ {
				name := fmt.Sprintf("db-%s", shapes[rng.Intn(len(shapes))])
				q, err := svc.StartQuery(context.Background(), name, fd.Query{
					Options: fd.QueryOptions{Workers: 1 + rng.Intn(2)},
				})
				if err != nil {
					errs <- err
					return
				}
				got := make(map[string]int)
				for {
					page, done, err := q.Next(1 + rng.Intn(5))
					if err != nil {
						errs <- err
						return
					}
					for _, r := range page {
						got[r.Set.Key()]++
					}
					if done {
						break
					}
				}
				wantKeys := want[name]
				if len(got) != len(wantKeys) {
					errs <- fmt.Errorf("worker %d %s: %d distinct results, want %d",
						w, name, len(got), len(wantKeys))
					return
				}
				for key, n := range wantKeys {
					if got[key] != n {
						errs <- fmt.Errorf("worker %d %s: multiset differs at %q", w, name, key)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := svc.Stats()
	if st.ResultsServed == 0 || st.QueriesStarted != workers*3 {
		t.Errorf("unexpected stats after concurrent run: %+v", st)
	}
}

// TestAdmissionSingleWorker checks that a one-slot pool still serves
// concurrent sessions correctly (they serialise instead of failing).
func TestAdmissionSingleWorker(t *testing.T) {
	db := testDB(t, "chain", 47)
	oneShot, _, err := core.FullDisjunction(db, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{Workers: 1, CacheCapacity: 1})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	counts := make([]int, 4)
	for w := range counts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct specs (K bounds above the result count, so each
			// drains everything) so nobody is served from cache.
			q, err := svc.StartQuery(context.Background(), "w", fd.Query{K: len(oneShot) + w})
			if err != nil {
				return
			}
			for {
				page, done, err := q.Next(2)
				if err != nil {
					return
				}
				counts[w] += len(page)
				if done {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, n := range counts {
		if n != len(oneShot) {
			t.Errorf("worker %d saw %d results, want %d", w, n, len(oneShot))
		}
	}
}

// TestStartQueryValidation covers spec validation failures.
func TestStartQueryValidation(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 53)); err != nil {
		t.Fatal(err)
	}
	bad := []struct {
		db string
		q  fd.Query
	}{
		{"w", fd.Query{Mode: "nope"}},
		{"w", fd.Query{Mode: fd.ModeRanked, Rank: "fsum"}},
		{"w", fd.Query{Mode: fd.ModeApprox, Tau: 0}},
		{"w", fd.Query{Mode: fd.ModeApprox, Tau: 1.5}},
		{"w", fd.Query{Mode: fd.ModeApprox, Tau: 0.5, Sim: "nope"}},
		{"w", fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.5}}, // no rank function
		{"missing", fd.Query{}},
		{"w", fd.Query{Options: fd.QueryOptions{Workers: -1}}},
	}
	for _, c := range bad {
		if _, err := svc.StartQuery(context.Background(), c.db, c.q); err == nil {
			t.Errorf("query %+v on %q unexpectedly accepted", c.q, c.db)
		}
	}
}

// TestPadAcrossUniverses guards the cache-sharing subtlety: a cached
// tuple set produced against database A renders correctly through the
// universe of an identically-fingerprinted database B.
func TestPadAcrossUniverses(t *testing.T) {
	a, b := testDB(t, "chain", 59), testDB(t, "chain", 59)
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("a", a); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.AddDatabase("b", b); err != nil {
		t.Fatal(err)
	}
	qa, err := svc.StartQuery(context.Background(), "a", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	resA := drain(t, qa, 10)
	qb, err := svc.StartQuery(context.Background(), "b", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	resB := drain(t, qb, 10)
	if !qb.FromCache() {
		t.Fatal("expected cache hit")
	}
	ua, ub := tupleset.NewUniverse(a), tupleset.NewUniverse(b)
	attrs := ub.AllAttributes()
	for i := range resA {
		pa := ua.PadOver(resA[i].Set, attrs)
		pb := ub.PadOver(resB[i].Set, attrs)
		if pa.Key() != pb.Key() {
			t.Fatalf("padded rendering differs at %d", i)
		}
	}
}

// TestApproxRankedPaging is the approx-ranked serving path: pages
// arrive in the order and with the ranks of the ranked approximate
// engine cursor.
func TestApproxRankedPaging(t *testing.T) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 71},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	c, err := rank.NewApproxCursor(context.Background(), db,
		&approx.Amin{S: approx.LevenshteinSim{}}, 0.6, rank.FMax{}, core.Options{UseIndex: true})
	want := rankedDrain(t, c, err)
	if len(want) == 0 {
		t.Fatal("workload yields no approx-ranked results")
	}

	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{
		Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax",
	})
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, q, 3)
	if len(got) != len(want) {
		t.Fatalf("approx-ranked paging returned %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Ranked {
			t.Fatalf("result %d not marked ranked", i)
		}
		if got[i].Rank != want[i].Rank || got[i].Set.Key() != want[i].Set.Key() {
			t.Fatalf("approx-ranked result %d differs: got (%q, %v), want (%q, %v)",
				i, got[i].Set.Key(), got[i].Rank, want[i].Set.Key(), want[i].Rank)
		}
	}
	// The repeat query replays from the cache, keyed by Canonical().
	q2, err := svc.StartQuery(context.Background(), "w", fd.Query{
		Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Error("repeated approx-ranked query not served from cache")
	}
}

// TestSessionContextCancellation checks that cancelling the context a
// session was started under aborts its in-flight enumeration: the next
// page fails with ctx.Err() and the session counts as done.
func TestSessionContextCancellation(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 83)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	q, err := svc.StartQuery(ctx, "w", fd.Query{})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, done, err := q.Next(1); err != nil || done {
		t.Fatalf("first page: done=%v err=%v", done, err)
	}
	cancel()
	_, done, err := q.Next(1)
	if !done {
		t.Fatal("cancelled session reported more results pending")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("page after cancel: err=%v, want context.Canceled", err)
	}
}

// TestEngineWorkerPool checks the shared intra-query worker budget: a
// parallel query takes extra workers from the pool (never more than
// EngineWorkers−1), a concurrent parallel query degrades toward
// sequential, a parallel query still costs one admission slot, and the
// slots come back when the session ends.
func TestEngineWorkerPool(t *testing.T) {
	svc := New(Config{Workers: 4, EngineWorkers: 3, CacheCapacity: -1})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 41)); err != nil {
		t.Fatal(err)
	}
	spec := fd.Query{Options: fd.QueryOptions{Workers: 8}}

	q1, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if q1.engineSlots != 2 {
		t.Fatalf("first query holds %d extra workers, want 2 (EngineWorkers-1)", q1.engineSlots)
	}
	q2, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if q2.engineSlots != 0 {
		t.Fatalf("second query holds %d extra workers, want 0 (budget exhausted)", q2.engineSlots)
	}

	want := drain(t, q2, 7) // sequential-degraded still enumerates fully
	q1.Close()
	if q1.engineSlots != 0 {
		t.Fatalf("closed query still holds %d extra workers", q1.engineSlots)
	}

	q3, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if q3.engineSlots != 2 {
		t.Fatalf("post-release query holds %d extra workers, want 2", q3.engineSlots)
	}
	got := drain(t, q3, 7)
	a, b := keysOf(want), keysOf(got)
	if len(a) != len(b) {
		t.Fatalf("parallel and degraded runs differ: %d vs %d results", len(b), len(a))
	}
	for k, n := range a {
		if b[k] != n {
			t.Fatalf("result multiplicity differs at %s: %d vs %d", k, b[k], n)
		}
	}
}

// TestEngineWorkerPoolSequentialSpec checks that sequential specs
// (ranked mode, explicit Workers 1) never touch the engine budget.
func TestEngineWorkerPoolSequentialSpec(t *testing.T) {
	svc := New(Config{Workers: 2, EngineWorkers: 4, CacheCapacity: -1})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 43)); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []fd.Query{
		{Options: fd.QueryOptions{Workers: 1}},
		{Mode: fd.ModeRanked, Rank: "fmax", K: 3, Options: fd.QueryOptions{Workers: 8}},
	} {
		q, err := svc.StartQuery(context.Background(), "w", spec)
		if err != nil {
			t.Fatal(err)
		}
		if q.engineSlots != 0 {
			t.Fatalf("spec %+v holds %d extra workers, want 0", spec, q.engineSlots)
		}
		q.Close()
	}
}
