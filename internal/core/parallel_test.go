package core

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

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
