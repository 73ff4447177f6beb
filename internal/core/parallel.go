package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// The per-relation passes of Fig 1 are independent by construction:
// pass i enumerates over relations Ri..Rn from scratch and keeps the
// results no tuple of an earlier relation extends — exactly the
// results of FD(R) whose minimal relation is i, the duplicate-avoidance
// rule below Corollary 4.7 (NewPassEnumerator). Within one pass the
// seed relation splits into anchor windows: the enumeration of the
// window [lo, hi) produces exactly the pass's results whose
// seed-relation member lies in it, so disjoint windows divide a pass's
// work without overlap, and every result is produced by one task.
//
// Windows are cut only when there are more workers than relations, and
// never smaller than minTaskSeeds tuples.

// TaskEnumerator is one suspended enumeration run by a parallel
// worker: a source of tuple sets plus its execution counters. The
// Enumerator satisfies it under every Predicate.
type TaskEnumerator interface {
	Next() (*tupleset.Set, bool)
	Stats() Stats
}

// Task is one independent unit of a partitioned enumeration.
type Task struct {
	// Open starts the task's enumeration. It runs on a worker
	// goroutine; everything it touches must be shareable (a frozen
	// database, a Universe) or task-local.
	Open func() (TaskEnumerator, error)
	// Label names the task in observability output ("pass 2",
	// "pass 0 block 1/4"…). Optional.
	Label string
}

// TaskSpan reports one finished parallel task to a TaskObserver: its
// label, wall-clock extent, and the enumerator's own counters (Emitted
// here counts what the task's enumerator emitted — the merged cursor's
// Emitted counts deliveries).
type TaskSpan struct {
	Label      string
	Start, End time.Time
	Stats      Stats
}

// TaskObserver receives a TaskSpan each time a parallel task finishes.
// It is invoked from worker goroutines, so implementations must be
// safe for concurrent use and cheap — they sit between a task's last
// result and the worker picking up its next task.
type TaskObserver func(TaskSpan)

// ParallelCursor merges the outputs of partitioned enumeration tasks,
// run on a bounded worker pool, into one pull cursor with the same
// Next/Err/Stats/Close semantics as the sequential Cursor. At most
// min(workers, len(tasks)) goroutines exist; they pull task indices
// from a shared queue, so a long task never strands idle workers while
// queued tasks wait (and task counts well above the worker count cost
// nothing). Cancelling ctx or calling Close stops every worker within
// one enumeration step; Close does not return before all of them have
// exited, so an early-closed cursor leaks no goroutines.
//
// Arrival order is whatever the interleaving produced — run-to-run
// nondeterministic — but the delivered set is exactly the union of the
// task outputs. Per-worker counters accumulate in task-local Stats and
// are folded under a lock once per finished task, never on the
// per-result path.
//
// A ParallelCursor is not safe for concurrent use by multiple
// consumers. Unlike the sequential cursors it holds goroutines while
// live: drain it, Close it, or cancel ctx — don't just drop it.
type ParallelCursor struct {
	parent context.Context
	cancel context.CancelFunc
	out    chan *tupleset.Set
	done   chan struct{} // closed after every worker has exited

	mu     sync.Mutex
	folded Stats // finished tasks' counters (Emitted zeroed)
	werr   error // first worker failure

	// consumer-goroutine state
	emitted int
	err     error
	closed  bool
}

// NewTaskCursor starts tasks on a pool of at most workers goroutines
// (≤0 selects GOMAXPROCS) and returns the merged cursor. A nil ctx
// means context.Background(). A non-nil obs receives one TaskSpan per
// finished task, from the worker goroutine that ran it; the clock is
// only read when obs is set, so the hook costs one nil check when
// observability is off.
func NewTaskCursor(ctx context.Context, tasks []Task, workers int, obs TaskObserver) *ParallelCursor {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &ParallelCursor{
		parent: ctx,
		cancel: cancel,
		out:    make(chan *tupleset.Set, workers),
		done:   make(chan struct{}),
	}
	run := func(cctx context.Context, t Task) error {
		var start time.Time
		if obs != nil {
			start = time.Now()
		}
		e, err := t.Open()
		if err != nil {
			return err
		}
		defer func() {
			// Fold once per finished task — the per-result path touches
			// only the enumerator's own counters.
			s := e.Stats()
			if obs != nil {
				obs(TaskSpan{Label: t.Label, Start: start, End: time.Now(), Stats: s})
			}
			s.Emitted = 0
			c.mu.Lock()
			c.folded.Add(s)
			c.mu.Unlock()
		}()
		for {
			// One check per enumeration step, as in the sequential
			// cursor: a cancelled run stops within one GetNextResult
			// iteration without polling per scanned tuple.
			if cctx.Err() != nil {
				return nil
			}
			r, ok := e.Next()
			if !ok {
				return nil
			}
			select {
			case c.out <- r:
			case <-cctx.Done():
				return nil
			}
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for cctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				if err := run(cctx, tasks[i]); err != nil {
					c.mu.Lock()
					if c.werr == nil {
						c.werr = err
					}
					c.mu.Unlock()
					cancel()
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		close(c.out)
		close(c.done)
	}()
	return c
}

// Next produces the next merged result, or ok=false when the
// enumeration is exhausted, closed, cancelled, or failed (check Err).
func (c *ParallelCursor) Next() (Result, bool) {
	if c.closed || c.err != nil {
		return Result{}, false
	}
	if err := c.parent.Err(); err != nil {
		// Cancelled between calls: report promptly instead of serving
		// results the workers had already buffered.
		c.err = err
		c.cancel()
		return Result{}, false
	}
	r, ok := <-c.out
	if !ok {
		// out closes only after every worker exited, so folded and
		// werr are final here.
		c.mu.Lock()
		werr := c.werr
		c.mu.Unlock()
		if werr != nil {
			c.err = werr
		} else if err := c.parent.Err(); err != nil {
			c.err = err
		}
		c.cancel()
		return Result{}, false
	}
	c.emitted++
	return Result{Set: r}, true
}

// Err returns the error that terminated the enumeration, if any —
// including ctx.Err() after a cancellation. A voluntary Close is not
// an error.
func (c *ParallelCursor) Err() error { return c.err }

// Stats snapshots the counters accumulated so far: the folded totals
// of every finished task plus the cursor's own emission count.
// In-flight tasks contribute when they finish (after a drain or Close
// the snapshot is complete); Emitted counts delivered results, as in
// the sequential cursor.
func (c *ParallelCursor) Stats() Stats {
	c.mu.Lock()
	s := c.folded
	c.mu.Unlock()
	s.Emitted = c.emitted
	return s
}

// Close abandons the enumeration: every worker is cancelled and Close
// waits for all of them to exit (each stops within one enumeration
// step), so no goroutine outlives the cursor. Idempotent; Next returns
// ok=false afterwards.
func (c *ParallelCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.cancel()
	<-c.done
}

// minTaskSeeds is the smallest anchor window a pass is split into:
// below this the per-task fixed costs (stores, scanner) outweigh the
// parallelism.
const minTaskSeeds = 8

// NewParallelCursor starts a parallel streaming enumeration of FD(R)
// under p on a pool of at most workers goroutines (≤0 selects
// GOMAXPROCS, resolved before the layout is cut) and returns the merged
// cursor. Only the restart strategy partitions (the seeded/projected
// initialisations feed each pass from the previous one, which is
// inherently sequential), and a shared buffer Pool is rejected rather
// than raced over.
func NewParallelCursor(ctx context.Context, db *relation.Database, p Predicate, opts Options, workers int) (*ParallelCursor, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil join predicate")
	}
	if opts.Strategy != InitSingletons {
		return nil, fmt.Errorf("core: parallel execution requires the restart strategy (got %s)", opts.Strategy)
	}
	if opts.Pool != nil {
		return nil, fmt.Errorf("core: parallel execution does not support a shared buffer pool")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	u := tupleset.NewUniverse(db)
	return NewTaskCursor(ctx, passTasks(u, p, opts, workers), workers, opts.TaskObserver), nil
}
