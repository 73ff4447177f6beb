package service

import (
	"context"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	fd "repro"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/store/faultfs"
)

// scrape parses the registry's Prometheus exposition — what GET
// /metrics serves — into series → value.
func scrape(t *testing.T, reg *obs.Registry) map[string]int64 {
	t.Helper()
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("exposition line %q: %v", line, err)
		}
		out[line[:i]] = int64(v)
	}
	return out
}

// seriesSum adds every series of the family name, whatever its labels.
func seriesSum(series map[string]int64, name string) int64 {
	var sum int64
	for k, v := range series {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// manualClock is an injected clock that moves only when advanced.
type manualClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *manualClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func startQuery(t *testing.T, svc *Service, db string, spec fd.Query) *Query {
	t.Helper()
	q, err := svc.StartQuery(context.Background(), db, spec)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func nextPage(t *testing.T, q *Query, k int) {
	t.Helper()
	if _, done, err := q.Next(k); err != nil || done {
		t.Fatalf("Next(%d) on %s: done=%v err=%v, want a partial page", k, q.ID(), done, err)
	}
}

// TestStatsMatchMetrics drives a scripted mix of every counted event —
// cache miss, hit and eviction, an admission shed, an idle eviction, a
// retried transient store fault, early closes of a live and of a
// cached session, and Service.Close — and holds every Stats count to
// its /metrics series.
func TestStatsMatchMetrics(t *testing.T) {
	fsys := faultfs.New()
	st, err := store.OpenFS("data", fsys)
	if err != nil {
		t.Fatal(err)
	}
	clock := &manualClock{now: time.Unix(1000, 0)}
	svc := New(Config{Workers: 1, CacheCapacity: 1, AdmissionTimeout: -1,
		IdleTimeout: time.Minute, Now: clock.Now, Store: st, Sleep: func(time.Duration) {}})
	db := testDB(t, "chain", 7)
	for _, name := range []string{"w", "v"} {
		if _, err := svc.AddDatabase(name, testDB(t, "chain", 7)); err != nil {
			t.Fatal(err)
		}
	}
	exact, approx := fd.Query{}, fd.Query{Mode: fd.ModeApprox, Tau: 0.8}

	// Drained sessions stay registered until closed; close them so the
	// idle sweep below finds only the idle one.
	for i, spec := range []fd.Query{exact, exact, approx} {
		// miss, then hit, then a miss whose list evicts the exact one
		q := startQuery(t, svc, "w", spec)
		if q.FromCache() != (i == 1) {
			t.Fatalf("query %d: FromCache = %v", i, q.FromCache())
		}
		drain(t, q, 3)
		q.Close()
	}

	svc.sem <- struct{}{} // the only worker slot is busy: shed
	if _, err := svc.StartQuery(context.Background(), "v", exact); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("StartQuery with no free slot: err = %v, want ErrOverloaded", err)
	}
	<-svc.sem

	idle := startQuery(t, svc, "v", exact)
	nextPage(t, idle, 1)
	clock.advance(2 * time.Minute)
	if n := svc.EvictIdle(); n != 1 {
		t.Fatalf("evicted %d sessions, want 1", n)
	}

	fsys.ArmAfter(1, faultfs.FailOp) // one transient fault, retried
	if _, err := svc.AppendRows("w", db.Relation(0).Name(), appendBatch(db, "x")); err != nil {
		t.Fatal(err)
	}

	live := startQuery(t, svc, "v", exact)
	nextPage(t, live, 1)
	live.Close()
	cached := startQuery(t, svc, "w", approx) // the list patched across the append
	if !cached.FromCache() {
		t.Fatal("patched approx list missed the cache")
	}
	nextPage(t, cached, 1)
	cached.Close()

	nextPage(t, startQuery(t, svc, "v", exact), 1) // left open for Close
	svc.Close()

	s := svc.Stats()
	m := scrape(t, svc.Metrics())
	for _, c := range []struct {
		field  string
		got    int64
		series string
	}{
		{"queries_finished", s.QueriesDone, "fd_queries_finished_total"},
		{"queries_evicted", s.QueriesEvicted, "fd_queries_evicted_total"},
		{"cache_hits", s.CacheHits, "fd_cache_hits_total"},
		{"cache_misses", s.CacheMisses, "fd_cache_misses_total"},
		{"cache_evictions", s.CacheEvictions, "fd_cache_evictions_total"},
		{"store_retries", s.StoreRetries, "fd_store_retries_total"},
		{"admission_timeouts", s.AdmissionTimeouts, "fd_admission_timeouts_total"},
		{"active_queries", int64(s.ActiveQueries), "fd_active_queries"},
		{"cache_entries", int64(s.CacheEntries), "fd_cache_entries"},
		{"cache_bytes", s.CacheBytes, "fd_cache_bytes"},
		{"queries_started", s.QueriesStarted, "fd_queries_total"},
		{"results_served", s.ResultsServed, "fd_results_served_total"},
	} {
		if want := seriesSum(m, c.series); c.got != want {
			t.Errorf("%s = %d, but Σ %s = %d", c.field, c.got, c.series, want)
		}
	}
	// Each scripted event moved its count, so the equalities above are
	// not 0 = 0.
	if s.QueriesStarted != 7 || s.QueriesDone != 7 || s.CacheHits != 2 ||
		s.CacheEvictions < 1 || s.QueriesEvicted != 1 || s.StoreRetries != 1 ||
		s.AdmissionTimeouts != 1 || s.ResultsServed == 0 {
		t.Errorf("scripted mix left unexpected counts: %+v", s)
	}
}

// TestSessionEndCountsOnce takes each way a session can end — drained
// from the cache, drained live, closed early live (holding an engine
// slot) and cached, idle-evicted, and shut by Service.Close — and
// demands exactly one fd_queries_finished_total per session, every
// engine slot back in the budget, and the trace's span names intact.
func TestSessionEndCountsOnce(t *testing.T) {
	clock := &manualClock{now: time.Unix(1000, 0)}
	svc := New(Config{EngineWorkers: 2, IdleTimeout: time.Minute, Now: clock.Now})
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 7)); err != nil {
		t.Fatal(err)
	}
	finished := func() int64 { return scrape(t, svc.Metrics())["fd_queries_finished_total"] }
	// Sessions on parallel are never drained, so they never hit the
	// cache; the drained live session needs a spec of its own.
	parallel := fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 2}}
	drainedParallel := fd.Query{Mode: fd.ModeApprox, Tau: 0.8, Options: fd.QueryOptions{Workers: 2}}
	fill := startQuery(t, svc, "w", fd.Query{})
	drain(t, fill, 4) // cache the exact list
	fill.Close()

	const (
		live     = "admission cache next open validate"
		liveShut = "admission cache close next open validate"
		cached   = "cache next validate"
	)
	cases := []struct {
		name  string
		spec  fd.Query
		end   func(q *Query)
		spans string
	}{
		{"drained cached", fd.Query{}, func(q *Query) { drain(t, q, 4); q.Close() }, cached},
		{"drained live", drainedParallel, func(q *Query) { drain(t, q, 4); q.Close() }, live},
		{"closed early live", parallel, func(q *Query) { nextPage(t, q, 1); q.Close(); q.Close() }, liveShut},
		{"closed early cached", fd.Query{}, func(q *Query) { nextPage(t, q, 1); q.Close() }, cached},
		{"idle evicted", parallel, func(q *Query) {
			nextPage(t, q, 1)
			clock.advance(2 * time.Minute)
			if n := svc.EvictIdle(); n != 1 {
				t.Fatalf("evicted %d sessions, want 1", n)
			}
		}, liveShut},
		{"service closed", parallel, func(q *Query) { nextPage(t, q, 1); svc.Close() }, liveShut},
	}
	for _, c := range cases {
		before := finished()
		q := startQuery(t, svc, "w", c.spec)
		if c.spec.Options.Workers == 2 && q.engineSlots != 1 {
			t.Fatalf("%s: session holds %d engine slots, want 1", c.name, q.engineSlots)
		}
		c.end(q)
		if got := finished() - before; got != 1 {
			t.Errorf("%s: fd_queries_finished_total moved by %d, want 1", c.name, got)
		}
		if n := len(svc.engineSem); n != 0 {
			t.Errorf("%s: %d engine slots still held", c.name, n)
		}
		d, ok := svc.QueryTrace(q.ID())
		if !ok {
			t.Fatalf("%s: no trace", c.name)
		}
		names := map[string]bool{}
		for _, sp := range d.Root.Children {
			if sp.Name != "task" {
				names[sp.Name] = true
			}
		}
		var got []string
		for n := range names {
			got = append(got, n)
		}
		sort.Strings(got)
		if strings.Join(got, " ") != c.spans {
			t.Errorf("%s: trace spans %v, want %s", c.name, got, c.spans)
		}
		if q.Progress().Phase != obs.PhaseDone.String() {
			t.Errorf("%s: phase %q after the session ended", c.name, q.Progress().Phase)
		}
	}
}
