package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// TestParallelBlockPartitionSetIdentity forces intra-pass block
// partitioning (more workers than relations) and checks the merged
// stream is set-identical to the sequential driver.
func TestParallelBlockPartitionSetIdentity(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{UseIndex: true}
	want, _, err := FullDisjunction(db, JCC, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := make(map[string]bool, len(want))
	for _, s := range want {
		wantKeys[s.Key()] = true
	}
	for _, workers := range []int{4, 7, 12} {
		u := tupleset.NewUniverse(db)
		tasks := passTasks(u, JCC, opts, workers)
		if workers > db.NumRelations() && len(tasks) <= db.NumRelations() {
			t.Fatalf("workers=%d: expected block-split tasks, got %d", workers, len(tasks))
		}
		c := NewTaskCursor(context.Background(), tasks, workers, nil)
		got := make(map[string]bool)
		for {
			r, ok := c.Next()
			if !ok {
				break
			}
			s := r.Set
			if got[s.Key()] {
				t.Fatalf("workers=%d: duplicate result %s", workers, s.Format(db))
			}
			got[s.Key()] = true
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		c.Close()
		if len(got) != len(wantKeys) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(wantKeys))
		}
		for k := range wantKeys {
			if !got[k] {
				t.Fatalf("workers=%d: missing result %s", workers, k)
			}
		}
		if s := c.Stats(); s.Emitted != len(want) {
			t.Fatalf("workers=%d: Emitted=%d, want %d", workers, s.Emitted, len(want))
		}
	}
}

// fakeEnum feeds canned sets and counts concurrently open tasks.
type fakeEnum struct {
	sets    []*tupleset.Set
	active  *atomic.Int32
	maxSeen *atomic.Int32
}

func (f *fakeEnum) Next() (*tupleset.Set, bool) {
	runtime.Gosched() // give other workers a chance to overlap
	if len(f.sets) == 0 {
		f.active.Add(-1)
		return nil, false
	}
	s := f.sets[0]
	f.sets = f.sets[1:]
	return s, true
}

func (f *fakeEnum) Stats() Stats { return Stats{} }

// TestParallelWorkerPoolBound proves the executor runs at most
// `workers` tasks concurrently even when the task count is far larger
// — the work-queue replacement for the old
// one-goroutine-per-relation-behind-a-semaphore shape.
func TestParallelWorkerPoolBound(t *testing.T) {
	db := workload.Tourist()
	u := tupleset.NewUniverse(db)
	var active, maxSeen atomic.Int32
	const workers, taskCount = 3, 40
	tasks := make([]Task, taskCount)
	for i := range tasks {
		tasks[i] = Task{
			Open: func() (TaskEnumerator, error) {
				n := active.Add(1)
				for {
					m := maxSeen.Load()
					if n <= m || maxSeen.CompareAndSwap(m, n) {
						break
					}
				}
				return &fakeEnum{sets: []*tupleset.Set{u.NewSet()}, active: &active, maxSeen: &maxSeen}, nil
			},
		}
	}
	c := NewTaskCursor(context.Background(), tasks, workers, nil)
	n := 0
	for {
		_, ok := c.Next()
		if !ok {
			break
		}
		n++
	}
	c.Close()
	if n != taskCount {
		t.Fatalf("delivered %d results, want %d", n, taskCount)
	}
	if m := maxSeen.Load(); m > workers {
		t.Fatalf("%d tasks ran concurrently, worker bound is %d", m, workers)
	}
}

// TestParallelEarlyCloseLeaksNothing reads one result, closes, and
// checks every worker goroutine has exited by the time Close returns.
func TestParallelEarlyCloseLeaksNothing(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	c, err := NewParallelCursor(context.Background(), db, JCC, Options{UseIndex: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Next(); !ok {
		t.Fatal("no first result")
	}
	c.Close()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
	if c.Err() != nil {
		t.Fatalf("voluntary Close set Err: %v", c.Err())
	}
}

// TestParallelCancellation cancels mid-stream and checks the pending
// Next fails promptly with the context error and workers exit.
func TestParallelCancellation(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c, err := NewParallelCursor(ctx, db, JCC, Options{UseIndex: true}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Next(); !ok {
		t.Fatal("no first result")
	}
	cancel()
	for {
		if _, ok := c.Next(); !ok {
			break
		}
	}
	if !errors.Is(c.Err(), context.Canceled) {
		t.Fatalf("Err=%v, want context.Canceled", c.Err())
	}
	c.Close()
}

// TestParallelTaskOpenError propagates a task failure to the consumer.
func TestParallelTaskOpenError(t *testing.T) {
	boom := fmt.Errorf("boom")
	tasks := []Task{{
		Open: func() (TaskEnumerator, error) { return nil, boom },
	}}
	c := NewTaskCursor(context.Background(), tasks, 2, nil)
	if _, ok := c.Next(); ok {
		t.Fatal("result from failing task")
	}
	if !errors.Is(c.Err(), boom) {
		t.Fatalf("Err=%v, want boom", c.Err())
	}
	c.Close()
}

// TestParallelLazyStart opens a cursor and closes it unread: no task
// opens and no goroutine starts, because the first Next starts the
// helpers.
func TestParallelLazyStart(t *testing.T) {
	baseline := runtime.NumGoroutine()
	var opened atomic.Int32
	tasks := make([]Task, 6)
	for i := range tasks {
		tasks[i] = Task{Open: func() (TaskEnumerator, error) {
			opened.Add(1)
			return &endless{}, nil
		}}
	}
	c := NewTaskCursor(context.Background(), tasks, 4, nil)
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after open, baseline %d", n, baseline)
	}
	c.Close()
	if n := runtime.NumGoroutine(); n > baseline {
		t.Fatalf("%d goroutines after Close, baseline %d", n, baseline)
	}
	if n := opened.Load(); n != 0 {
		t.Fatalf("%d tasks opened without a Next", n)
	}
	if _, ok := c.Next(); ok || c.Err() != nil {
		t.Fatalf("closed cursor: ok=%v Err=%v", ok, c.Err())
	}
}

// endless is a task enumerator that never runs out; produced counts
// its results across every task sharing it.
type endless struct{ produced *atomic.Int64 }

func (e *endless) Next() (*tupleset.Set, bool) {
	if e.produced != nil {
		e.produced.Add(1)
	}
	return nil, true
}

func (e *endless) Stats() Stats { return Stats{} }

// TestParallelRunAheadBound stops pulling from a cursor over endless
// tasks and waits until every helper is blocked on the run-ahead
// window: by then the helpers have produced at most runAhead results,
// plus the one each holds, beyond what the consumer pulled.
func TestParallelRunAheadBound(t *testing.T) {
	const workers, pulled = 3, 100
	var produced atomic.Int64
	tasks := make([]Task, workers)
	for i := range tasks {
		tasks[i] = Task{Open: func() (TaskEnumerator, error) { return &endless{produced: &produced}, nil }}
	}
	baseline := runtime.NumGoroutine()
	c := NewTaskCursor(context.Background(), tasks, workers, nil)
	for i := 0; i < pulled; i++ {
		if _, ok := c.Next(); !ok {
			t.Fatalf("cursor ended after %d results: %v", i, c.Err())
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		blocked := c.waiting == workers-1
		c.mu.Unlock()
		if blocked {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("helpers never filled the run-ahead window")
		}
		time.Sleep(time.Millisecond)
	}
	if ahead, most := produced.Load()-pulled, int64(runAhead+workers-1); ahead > most {
		t.Fatalf("helpers ran %d results ahead, bound is %d", ahead, most)
	}
	c.Close()
	// A helper counts until it has returned from its deferred Done.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked after Close: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestParallelTaskSpans drains parallel cursors at one, two and four
// workers and checks the TaskObserver saw one span per planned task —
// at one worker the caller runs every task itself — and that the spans'
// counters sum to the drained Stats.
func TestParallelTaskSpans(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 40, Domain: 4, NullRate: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		var mu sync.Mutex
		var spans []TaskSpan
		opts := Options{UseIndex: true, UseJoinIndex: true, TaskObserver: func(s TaskSpan) {
			mu.Lock()
			spans = append(spans, s)
			mu.Unlock()
		}}
		c, err := NewParallelCursor(context.Background(), db, JCC, opts, workers)
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := c.Next(); !ok {
				break
			}
		}
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
		got := c.Stats()
		c.Close()
		mu.Lock()
		var sum Stats
		labels := make(map[string]bool)
		for _, s := range spans {
			sum.Add(s.Stats)
			labels[s.Label] = true
		}
		n := len(spans)
		mu.Unlock()
		layout := Layout(db, workers)
		if n != len(layout) || len(labels) != len(layout) {
			t.Fatalf("workers=%d: %d spans with %d labels, want one per task of %d", workers, n, len(labels), len(layout))
		}
		for _, m := range layout {
			if !labels[m.Label] {
				t.Errorf("workers=%d: no span for %q", workers, m.Label)
			}
		}
		if sum != got {
			t.Errorf("workers=%d: spans sum to %+v, drained Stats %+v", workers, sum, got)
		}
	}
}

// TestLayoutWindows checks the layout at two to eight workers: every
// non-empty pass relation's [0, Len) is covered by disjoint, ordered
// windows, one per worker as far as each holds at least minTaskSeeds
// seeds.
func TestLayoutWindows(t *testing.T) {
	sizes := []int{0, 5, 8, 17, 40, 100}
	var rels []*relation.Relation
	for i, n := range sizes {
		r := relation.MustRelation(fmt.Sprintf("R%d", i), relation.MustSchema("A"))
		for j := 0; j < n; j++ {
			r.MustAppend(fmt.Sprintf("r%d_%d", i, j), map[relation.Attribute]relation.Value{"A": relation.V(fmt.Sprint(j % 7))})
		}
		rels = append(rels, r)
	}
	db := relation.MustDatabase(rels...)
	for workers := 2; workers <= 8; workers++ {
		byPass := make(map[int][]TaskMeta)
		for _, m := range Layout(db, workers) {
			byPass[m.Pass] = append(byPass[m.Pass], m)
		}
		for pass, n := range sizes {
			windows := byPass[pass]
			if n == 0 {
				if len(windows) != 0 {
					t.Errorf("workers=%d: empty relation %d has %d tasks", workers, pass, len(windows))
				}
				continue
			}
			if want := max(min(workers, n/minTaskSeeds), 1); len(windows) != want {
				t.Errorf("workers=%d: pass %d (%d seeds) has %d windows, want %d", workers, pass, n, len(windows), want)
			}
			lo := 0
			for b, m := range windows {
				if m.Block != b || m.Blocks != len(windows) || m.SeedLo != lo || m.SeedHi <= m.SeedLo {
					t.Errorf("workers=%d: pass %d window %+v does not continue at %d", workers, pass, m, lo)
				}
				if len(windows) > 1 && m.Seeds() < minTaskSeeds {
					t.Errorf("workers=%d: pass %d window %+v holds fewer than %d seeds", workers, pass, m, minTaskSeeds)
				}
				lo = m.SeedHi
			}
			if lo != n {
				t.Errorf("workers=%d: pass %d windows end at %d, want %d", workers, pass, lo, n)
			}
		}
	}
}
