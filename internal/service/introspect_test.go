package service

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/workload"
)

// TestDelaySLOBreach proves the watchdog path: a 1ns SLO makes every
// real inter-result gap a breach, so the breach counter moves, the
// first breach logs a warning with the trace summary, and the
// per-session delay histogram records every gap.
func TestDelaySLOBreach(t *testing.T) {
	db := testDB(t, "chain", 43)
	var buf bytes.Buffer
	svc := New(Config{
		DelaySLO: time.Nanosecond,
		Logger:   slog.New(slog.NewTextHandler(&buf, nil)),
	})
	defer svc.Close()
	reg := svc.Metrics()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	results := drain(t, q, 50)
	if len(results) == 0 {
		t.Fatal("no results")
	}
	breaches := reg.Counter("fd_delay_slo_breaches_total", "").Value()
	if breaches != int64(len(results)) {
		t.Errorf("%d breaches counted for %d results under a 1ns SLO", breaches, len(results))
	}
	out := buf.String()
	if !strings.Contains(out, "delay SLO breach") {
		t.Errorf("no breach warning logged:\n%s", out)
	}
	if strings.Count(out, "delay SLO breach") != 1 {
		t.Errorf("breach warning logged more than once per session:\n%s", out)
	}
	if h := reg.Histogram("fd_result_delay_seconds", "", "db", "w", "mode", "exact"); h.Count() != int64(len(results)) {
		t.Errorf("delay histogram holds %d observations for %d results", h.Count(), len(results))
	}

	// The delay summary reached the trace root as attributes.
	d, ok := svc.QueryTrace(q.ID())
	if !ok {
		t.Fatal("no trace")
	}
	if !strings.Contains(d.Summary(), "delay_max_ms") {
		// Summary may not include attrs; check the root span directly.
		if d.Root == nil || d.Root.Attrs["delay_max_ms"] == "" {
			t.Errorf("trace root missing delay_max_ms attribute")
		}
	}
}

// TestDelaySLODisabled: with the watchdog off (the default), the same
// drain counts no breaches and logs nothing.
func TestDelaySLODisabled(t *testing.T) {
	db := testDB(t, "chain", 43)
	var buf bytes.Buffer
	svc := New(Config{Logger: slog.New(slog.NewTextHandler(&buf, nil))})
	defer svc.Close()
	reg := svc.Metrics()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q, 50)
	if n := reg.Counter("fd_delay_slo_breaches_total", "").Value(); n != 0 {
		t.Errorf("%d breaches counted with the watchdog disabled", n)
	}
	if strings.Contains(buf.String(), "delay SLO breach") {
		t.Errorf("breach logged with the watchdog disabled:\n%s", buf.String())
	}
}

// TestServiceExplain checks the service plan report: unknown databases
// fail typed, the plan carries the session cache key, and the cache-hit
// prediction flips once an identical query drains — without the probe
// itself promoting (or fabricating) an entry.
func TestServiceExplain(t *testing.T) {
	db := testDB(t, "chain", 47)
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Explain("nope", fd.Query{}); !errors.Is(err, ErrUnknownDatabase) {
		t.Fatalf("unknown db: %v", err)
	}
	spec := fd.Query{Mode: fd.ModeExact}
	rep, err := svc.Explain("w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHitPredicted {
		t.Error("hit predicted on a cold cache")
	}
	if rep.Plan == nil || rep.Strategy.Execution == "" {
		t.Fatalf("degenerate plan: %+v", rep)
	}

	q, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q, 100)
	rep, err = svc.Explain("w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.CacheHitPredicted {
		t.Error("no hit predicted after an identical drain")
	}
	// The prediction comes true.
	q2, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Error("predicted hit did not materialise")
	}
	// A different spec still predicts a miss.
	other := spec
	other.K = 3
	rep, err = svc.Explain("w", other)
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHitPredicted {
		t.Error("hit predicted for a different canonical query")
	}
}

// TestSessionProgress pages a query and checks the live report between
// pages: counters monotone, phase transitions honest, and cached
// replay sessions reporting phase "cached" with moving counters.
func TestSessionProgress(t *testing.T) {
	db := testDB(t, "chain", 53)
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	spec := fd.Query{Mode: fd.ModeExact}
	q, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if p := q.Progress(); p.ID != q.ID() || p.DB != "w" || p.Mode != "exact" || p.FromCache {
		t.Fatalf("initial report wrong: %+v", p)
	}
	var last int64
	total := 0
	for {
		page, done, err := q.Next(3)
		if err != nil {
			t.Fatal(err)
		}
		total += len(page)
		p := q.Progress()
		if p.ResultsEmitted < last {
			t.Fatalf("ResultsEmitted went backwards: %d after %d", p.ResultsEmitted, last)
		}
		last = p.ResultsEmitted
		if done {
			break
		}
	}
	p := q.Progress()
	if p.Phase != "done" {
		t.Errorf("drained phase %q, want done", p.Phase)
	}
	if p.ResultsEmitted != int64(total) {
		t.Errorf("ResultsEmitted=%d, %d results paged", p.ResultsEmitted, total)
	}
	if p.Delay.Count != int64(total) {
		t.Errorf("delay count %d for %d results", p.Delay.Count, total)
	}

	// The cached replay: phase "cached", counters still monotone.
	q2, err := svc.StartQuery(context.Background(), "w", spec)
	if err != nil {
		t.Fatal(err)
	}
	if !q2.FromCache() {
		t.Fatal("second session missed the cache")
	}
	if got := q2.Progress().Phase; got != "cached" {
		t.Errorf("cached session phase %q, want cached", got)
	}
	cachedTotal := 0
	for {
		page, done, err := q2.Next(4)
		if err != nil {
			t.Fatal(err)
		}
		cachedTotal += len(page)
		if p := q2.Progress(); p.ResultsEmitted != int64(cachedTotal) {
			t.Errorf("cached ResultsEmitted=%d after %d served", p.ResultsEmitted, cachedTotal)
		}
		if done {
			break
		}
	}
	if got := q2.Progress().Phase; got != "done" {
		t.Errorf("drained cached session phase %q, want done", got)
	}
}

// TestSessionDelaySumsToWallTime is the delay-tracker property: the
// inter-result gaps a drained session observes telescope — one gap per
// result, summing to at most the wall time from StartQuery to the last
// page. Checked for each cursor family a session can page.
func TestSessionDelaySumsToWallTime(t *testing.T) {
	chain := testDB(t, "chain", 41)
	dirty, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 23},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	svc := New(Config{CacheCapacity: -1, EngineWorkers: 4})
	defer svc.Close()
	for name, db := range map[string]*relation.Database{"chain": chain, "dirty": dirty} {
		if _, err := svc.AddDatabase(name, db); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name, db string
		q        fd.Query
	}{
		{"exact", "chain", fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 1}}},
		{"exact-parallel", "chain", fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 4}}},
		{"ranked", "chain", fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 20}},
		{"approx", "dirty", fd.Query{Mode: fd.ModeApprox, Tau: 0.6, Options: fd.QueryOptions{Workers: 1}}},
		{"approx-ranked", "dirty", fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", K: 10}},
	}
	for _, c := range cases {
		start := time.Now()
		q, err := svc.StartQuery(context.Background(), c.db, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results := len(drain(t, q, 3))
		wall := time.Since(start)
		if results == 0 {
			t.Fatalf("%s: no results to observe", c.name)
		}
		s := q.Progress().Delay
		if s.Count != int64(results) {
			t.Errorf("%s: %d delay observations for %d results", c.name, s.Count, results)
		}
		// The gaps are anchored at Open's return, so their sum can never
		// exceed the StartQuery-to-drain wall time.
		wallMs := float64(wall.Microseconds()) / 1e3
		if s.SumMillis > wallMs+1 {
			t.Errorf("%s: delay sum %.3fms exceeds wall time %.3fms", c.name, s.SumMillis, wallMs)
		}
		if s.SumMillis < 0 || s.MaxMillis > wallMs+1 {
			t.Errorf("%s: implausible summary %+v for wall %.3fms", c.name, s, wallMs)
		}
	}
}

// TestSessionProgressConcurrentWithNext: progress reports taken
// concurrently with the paging loop are race-free and monotone, and
// the final report accounts for every result served and every
// partitioned task of the plan.
func TestSessionProgressConcurrentWithNext(t *testing.T) {
	db := testDB(t, "chain", 41)
	for _, workers := range []int{1, 4} {
		svc := New(Config{CacheCapacity: -1, EngineWorkers: workers})
		defer svc.Close()
		if _, err := svc.AddDatabase("w", db); err != nil {
			t.Fatal(err)
		}
		spec := fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: workers}}
		plan, err := fd.Explain(db, spec)
		if err != nil {
			t.Fatal(err)
		}
		q, err := svc.StartQuery(context.Background(), "w", spec)
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEmitted, lastTasks int64
			for {
				s := q.Progress()
				if s.ResultsEmitted < lastEmitted || s.TasksDone < lastTasks {
					t.Errorf("workers=%d: progress went backwards: %+v after emitted=%d tasks=%d",
						workers, s, lastEmitted, lastTasks)
					return
				}
				lastEmitted, lastTasks = s.ResultsEmitted, s.TasksDone
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		results := len(drain(t, q, 3))
		close(stop)
		wg.Wait()

		s := q.Progress()
		if s.Phase != "done" {
			t.Errorf("workers=%d: final phase %q, want done", workers, s.Phase)
		}
		if s.ResultsEmitted != int64(results) || q.Served() != results {
			t.Errorf("workers=%d: ResultsEmitted=%d Served=%d, %d results paged",
				workers, s.ResultsEmitted, q.Served(), results)
		}
		if s.TuplesScanned == 0 {
			t.Errorf("workers=%d: TuplesScanned stayed zero", workers)
		}
		if workers > 1 {
			if s.TasksTotal != int64(len(plan.Strategy.Tasks)) || s.TasksDone != s.TasksTotal {
				t.Errorf("workers=%d: tasks %d/%d, plan promised %d",
					workers, s.TasksDone, s.TasksTotal, len(plan.Strategy.Tasks))
			}
		} else if s.TasksTotal != 0 {
			t.Errorf("workers=1: TasksTotal=%d for an unpartitioned run", s.TasksTotal)
		}
	}
}

// TestSessionProgressEarlyClose: a session closed before exhaustion
// still reaches the done phase, so pollers never hang on "enumerate".
func TestSessionProgressEarlyClose(t *testing.T) {
	svc := New(Config{})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", testDB(t, "chain", 41)); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact,
		Options: fd.QueryOptions{Workers: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if page, _, err := q.Next(1); err != nil || len(page) != 1 {
		t.Fatalf("first page: %d results, err %v", len(page), err)
	}
	if got := q.Progress().Phase; got != "enumerate" {
		t.Fatalf("mid-drain phase %q, want enumerate", got)
	}
	q.Close()
	if got := q.Progress().Phase; got != "done" {
		t.Errorf("post-Close phase %q, want done", got)
	}
}
