package service

import (
	"bytes"
	"context"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

// sumSpanStats folds the stats of every open/next/close span of a
// trace into one core.Stats — the additive counters a drained cursor's
// final Stats() must equal. Task spans are excluded: parallel tasks'
// counters are already folded into the cursor snapshots the page
// deltas telescope over, so adding them would double-count.
func sumSpanStats(d *obs.TraceData) core.Stats {
	total := map[string]int64{}
	for _, name := range []string{"open", "next", "close"} {
		for k, v := range d.SumStats(name) {
			total[k] += v
		}
	}
	return core.Stats{
		Iterations:    int(total["iterations"]),
		Emitted:       int(total["emitted"]),
		JCCChecks:     total["jcc_checks"],
		TuplesScanned: total["tuples_scanned"],
		ListScans:     total["list_scans"],
		PageReads:     total["page_reads"],
		IndexProbes:   total["index_probes"],
		TuplesSkipped: total["tuples_skipped"],
		SigHits:       total["sig_hits"],
		SigRebuilds:   total["sig_rebuilds"],
	}
}

// statsEqualAdditive compares every additive counter (MaxResident is a
// high-water mark and not attributable to spans).
func statsEqualAdditive(a, b core.Stats) bool {
	a.MaxResident, b.MaxResident = 0, 0
	return a == b
}

// TestTraceStatsSumToFinal is the acceptance criterion: the per-span
// core.Stats deltas of a drained query's trace sum to the cursor's
// final Stats() — sequentially and on the parallel executor.
func TestTraceStatsSumToFinal(t *testing.T) {
	db := testDB(t, "chain", 23)
	for _, workers := range []int{1, 4} {
		// EngineWorkers is provisioned explicitly: on a small machine the
		// default budget (GOMAXPROCS) would degrade the query to
		// sequential and the parallel assertions below would be vacuous.
		svc := New(Config{CacheCapacity: -1, EngineWorkers: workers})
		defer svc.Close()
		if _, err := svc.AddDatabase("w", db); err != nil {
			t.Fatal(err)
		}
		spec := fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: workers}}
		q, err := svc.StartQuery(context.Background(), "w", spec)
		if err != nil {
			t.Fatal(err)
		}
		drain(t, q, 3)
		final := svc.Stats().Engine // folded at drain; the only session
		d, ok := svc.QueryTrace(q.ID())
		if !ok {
			t.Fatalf("workers=%d: no trace for live session %s", workers, q.ID())
		}
		got := sumSpanStats(d)
		if !statsEqualAdditive(got, final) {
			t.Errorf("workers=%d: span stats sum %v != final %v", workers, got, final)
		}
		if len(d.FindAll("next")) == 0 || len(d.FindAll("open")) != 1 {
			t.Errorf("workers=%d: missing spans: %s", workers, d.Summary())
		}
		if workers > 1 && len(d.FindAll("task")) == 0 {
			t.Errorf("workers=%d: no parallel task spans recorded", workers)
		}
		// The trace survives the session: close it and fetch again.
		q.Close()
		d2, ok := svc.QueryTrace(q.ID())
		if !ok {
			t.Fatalf("workers=%d: trace lost after close", workers)
		}
		if !statsEqualAdditive(sumSpanStats(d2), final) {
			t.Errorf("workers=%d: finished-trace stats drifted", workers)
		}
	}
}

// TestTraceOfClosedPartialSession: a session closed mid-enumeration
// gets a terminal "close" span carrying the unattributed counters, so
// the sum property holds for abandoned queries too.
func TestTraceOfClosedPartialSession(t *testing.T) {
	db := testDB(t, "chain", 29)
	svc := New(Config{CacheCapacity: -1})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Next(2); err != nil {
		t.Fatal(err)
	}
	q.Close()
	final := svc.Stats().Engine
	d, ok := svc.QueryTrace(q.ID())
	if !ok {
		t.Fatal("no trace after close")
	}
	if len(d.FindAll("close")) != 1 {
		t.Fatalf("expected one close span: %s", d.Summary())
	}
	if got := sumSpanStats(d); !statsEqualAdditive(got, final) {
		t.Errorf("span stats sum %v != final %v", got, final)
	}
}

// TestTraceHistoryBounded: the finished-trace FIFO drops the oldest
// trace beyond TraceHistory.
func TestTraceHistoryBounded(t *testing.T) {
	db := testDB(t, "chain", 31)
	svc := New(Config{TraceHistory: 2, CacheCapacity: -1})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		drain(t, q, 100)
		q.Close()
		ids = append(ids, q.ID())
	}
	if _, ok := svc.QueryTrace(ids[0]); ok {
		t.Errorf("oldest trace %s not evicted at history 2", ids[0])
	}
	for _, id := range ids[1:] {
		if _, ok := svc.QueryTrace(id); !ok {
			t.Errorf("trace %s missing from history", id)
		}
	}
}

// TestServiceMetrics drives a query twice (miss, then cache hit) and
// asserts the registry exposition moved the query, cache and
// result-row counters with the right labels.
func TestServiceMetrics(t *testing.T) {
	db := testDB(t, "chain", 37)
	svc := New(Config{})
	defer svc.Close()
	reg := svc.Metrics()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact})
		if err != nil {
			t.Fatal(err)
		}
		drain(t, q, 4)
		q.Close()
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`fd_queries_total{db="w",mode="exact"} 2`,
		`fd_cache_hits_total 1`,
		`fd_cache_misses_total 1`,
		`fd_active_queries 0`,
		`fd_queries_finished_total 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(out, `fd_results_served_total{db="w"}`) {
		t.Errorf("exposition missing per-db results counter:\n%s", out)
	}
	if reg.Histogram("fd_admission_wait_seconds", "").Count() == 0 {
		t.Error("admission wait histogram never observed")
	}
}

// TestSlowQueryLog: with an injected clock every step takes 1ms, so a
// sub-millisecond threshold must trip the slow-query warning and emit
// the trace summary.
func TestSlowQueryLog(t *testing.T) {
	db := testDB(t, "chain", 41)
	var buf bytes.Buffer
	var mu timeMutexClock
	svc := New(Config{
		SlowQuery: time.Microsecond,
		Logger:    slog.New(slog.NewTextHandler(&buf, nil)),
		Now:       mu.now,
	})
	defer svc.Close()
	if _, err := svc.AddDatabase("w", db); err != nil {
		t.Fatal(err)
	}
	q, err := svc.StartQuery(context.Background(), "w", fd.Query{Mode: fd.ModeExact})
	if err != nil {
		t.Fatal(err)
	}
	drain(t, q, 100)
	out := buf.String()
	if !strings.Contains(out, "slow query") || !strings.Contains(out, "next×") {
		t.Errorf("slow-query warning with trace summary not logged:\n%s", out)
	}
}

// timeMutexClock is a concurrency-safe injected clock advancing 1ms
// per reading (Config.Now is read from several goroutines).
type timeMutexClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *timeMutexClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.t.IsZero() {
		c.t = time.Unix(1000, 0)
	}
	c.t = c.t.Add(time.Millisecond)
	return c.t
}
