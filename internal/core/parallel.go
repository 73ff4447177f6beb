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
// With more than one worker every pass is cut into one window per
// worker, never smaller than minTaskSeeds tuples (Layout), so no single
// pass — pass 0 usually holds most of the work — runs on one worker
// while the others idle.
//
// The executor is caller-runs, after the work-first principle of
// Cilk-5 (Frigo, Leiserson & Randall, PLDI 1998): the goroutine that
// calls Next claims and runs tasks itself, returning its own results
// directly, and only workers−1 helper goroutines exist. Helpers hand
// their results over in batches, as the exchange operator of Volcano
// does with packets (Graefe, SIGMOD 1990): they append to one
// lock-guarded queue and wake the consumer only when it is parked; the
// consumer takes the whole queue under one lock, prefers queued results
// over stepping its own task, and parks only when it has no task left.

// TaskEnumerator is one suspended enumeration run by a parallel
// worker: a source of tuple sets plus its execution counters. The
// Enumerator satisfies it under every Predicate.
type TaskEnumerator interface {
	Next() (*tupleset.Set, bool)
	Stats() Stats
}

// Task is one independent unit of a partitioned enumeration.
type Task struct {
	// Open starts the task's enumeration. It runs on the consumer's or
	// a helper's goroutine; everything it touches must be shareable (a
	// frozen database, a Universe) or task-local.
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

// TaskObserver receives a TaskSpan each time a parallel task finishes
// or is abandoned by Close. It is invoked from helper goroutines and
// from the goroutine calling Next or Close, so implementations must be
// safe for concurrent use and cheap — they sit between a task's last
// result and the worker picking up its next task.
type TaskObserver func(TaskSpan)

// runAhead bounds how many results the helpers may produce beyond what
// the consumer has delivered: enough that a batch hand-off amortises
// the lock over many results, small enough that an early-closed or
// K-bounded query wastes little work.
const runAhead = 64

// ParallelCursor runs partitioned enumeration tasks on the goroutine
// calling Next plus at most workers−1 helper goroutines, merged into one
// pull cursor with the same Next/Err/Stats/Close semantics as the
// sequential Cursor. Every runner claims task indices from a shared
// counter, so a long task never strands idle workers while queued tasks
// wait. No helper starts before the first Next, so a cursor opened and
// closed unread runs no task and holds no goroutine. Helpers run at
// most runAhead results ahead of the consumer, plus the one each holds
// while it waits for room. Cancelling ctx or calling Close stops every
// helper within one enumeration step; Close does not return before all
// of them have exited, so an early-closed cursor leaks no goroutines.
//
// Arrival order is whatever the interleaving produced — run-to-run
// nondeterministic — but the delivered set is exactly the union of the
// task outputs. Per-task counters accumulate in task-local Stats and
// are folded under a lock once per finished task, never on the
// per-result path.
//
// A ParallelCursor is not safe for concurrent use by multiple
// consumers. Once read it holds goroutines while live: drain it, Close
// it, or cancel ctx — don't just drop it.
type ParallelCursor struct {
	parent   context.Context
	ctx      context.Context // cancelled by Close, a task failure or parent
	cancel   context.CancelFunc
	tasks    []Task
	helpers  int // helper goroutines the first Next starts
	obs      TaskObserver
	claimed  atomic.Int64 // tasks claimed so far, by any runner
	wg       sync.WaitGroup
	stopWake func() bool // unregisters the cancellation wake-up

	mu sync.Mutex
	// ready wakes the parked consumer: results queued, the last helper
	// gone, or ctx cancelled. room wakes helpers waiting for the
	// run-ahead window.
	ready, room sync.Cond
	queue       []*tupleset.Set // helpers' results the consumer has not taken
	held        int             // size of the batch the consumer took last
	parked      bool            // the consumer waits on ready
	waiting     int             // helpers waiting on room
	live        int             // helpers not yet exited
	folded      Stats           // finished tasks' counters (Emitted zeroed)
	werr        error           // first task failure

	// consumer-goroutine state
	started bool
	batch   []*tupleset.Set // the taken queue, delivered from pos on
	pos     int
	own     *taskRun // the task the consumer is running, if any
	emitted int
	err     error
	done    bool // exhausted, failed or cancelled: Next serves no more
	closed  bool
}

// taskRun is one task in flight.
type taskRun struct {
	label string
	e     TaskEnumerator
	start time.Time
}

// NewTaskCursor prepares tasks to run on the goroutine calling Next
// plus at most workers−1 helpers (≤0 selects GOMAXPROCS) and returns
// the merged cursor; no task runs before the first Next. A nil ctx
// means context.Background(). A non-nil obs receives one TaskSpan per
// task, from the goroutine that ran it; the clock is only read when obs
// is set, so the hook costs one nil check when observability is off.
func NewTaskCursor(ctx context.Context, tasks []Task, workers int, obs TaskObserver) *ParallelCursor {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cctx, cancel := context.WithCancel(ctx)
	c := &ParallelCursor{
		parent:  ctx,
		ctx:     cctx,
		cancel:  cancel,
		tasks:   tasks,
		helpers: max(min(workers, len(tasks))-1, 0),
		obs:     obs,
	}
	c.ready.L = &c.mu
	c.room.L = &c.mu
	return c
}

// start launches the helpers and arranges for a cancellation to wake
// whichever runner is parked.
func (c *ParallelCursor) start() {
	c.started = true
	c.live = c.helpers
	c.stopWake = context.AfterFunc(c.ctx, c.wake)
	c.wg.Add(c.helpers)
	for range c.helpers {
		go c.help()
	}
}

// wake rouses every parked runner so it rechecks ctx.
func (c *ParallelCursor) wake() {
	c.mu.Lock()
	c.ready.Broadcast()
	c.room.Broadcast()
	c.mu.Unlock()
}

// claim opens the next unclaimed task, or returns nil when none is
// left. A failed Open cancels the run and records the error.
func (c *ParallelCursor) claim() *taskRun {
	i := int(c.claimed.Add(1)) - 1
	if i >= len(c.tasks) {
		return nil
	}
	t := c.tasks[i]
	r := &taskRun{label: t.Label}
	if c.obs != nil {
		r.start = time.Now()
	}
	e, err := t.Open()
	if err != nil {
		c.mu.Lock()
		if c.werr == nil {
			c.werr = err
		}
		c.mu.Unlock()
		c.cancel()
		return nil
	}
	r.e = e
	return r
}

// finish folds a finished or abandoned task's counters, once per task —
// the per-result path touches only the enumerator's own counters.
func (c *ParallelCursor) finish(r *taskRun) {
	s := r.e.Stats()
	if c.obs != nil {
		c.obs(TaskSpan{Label: r.label, Start: r.start, End: time.Now(), Stats: s})
	}
	s.Emitted = 0
	c.mu.Lock()
	c.folded.Add(s)
	c.mu.Unlock()
}

// help is one helper goroutine: it runs tasks until none is left or
// the run is cancelled, handing every result to the queue.
func (c *ParallelCursor) help() {
	defer c.wg.Done()
	for c.ctx.Err() == nil {
		r := c.claim()
		if r == nil {
			break
		}
		// One check per enumeration step, as in the sequential cursor:
		// a cancelled run stops within one GetNextResult iteration
		// without polling per scanned tuple.
		for c.ctx.Err() == nil {
			t, ok := r.e.Next()
			if !ok || !c.push(t) {
				break
			}
		}
		c.finish(r)
	}
	c.mu.Lock()
	c.live--
	if c.parked {
		c.ready.Signal()
	}
	c.mu.Unlock()
}

// push queues one helper result, waiting while the run-ahead window is
// full. It reports false when the run was cancelled meanwhile.
func (c *ParallelCursor) push(t *tupleset.Set) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for len(c.queue)+c.held >= runAhead {
		if c.ctx.Err() != nil {
			return false
		}
		c.waiting++
		c.room.Wait()
		c.waiting--
	}
	c.queue = append(c.queue, t)
	if c.parked {
		c.ready.Signal()
	}
	return true
}

// take swaps the queue in as the consumer's batch once the previous
// batch is delivered, recycling the old batch's array as the new queue.
// With wait set it parks first, until results arrive, the last helper
// exits or the run is cancelled. It reports whether a batch was taken.
func (c *ParallelCursor) take(wait bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for wait && len(c.queue) == 0 && c.live > 0 && c.ctx.Err() == nil {
		c.parked = true
		c.ready.Wait()
		c.parked = false
	}
	if c.held > 0 && c.waiting > 0 {
		// The delivered batch no longer counts against the window.
		c.room.Broadcast()
	}
	c.batch, c.queue = c.queue, c.batch[:0]
	c.pos, c.held = 0, len(c.batch)
	return c.held > 0
}

// Next produces the next merged result, or ok=false when the
// enumeration is exhausted, closed, cancelled, or failed (check Err).
func (c *ParallelCursor) Next() (Result, bool) {
	if c.closed || c.done {
		return Result{}, false
	}
	if !c.started {
		c.start()
	}
	for {
		// Checked before queued results too: a run cancelled between
		// calls reports promptly instead of serving what helpers had
		// already produced.
		if c.ctx.Err() != nil {
			c.end()
			return Result{}, false
		}
		if c.pos < len(c.batch) {
			t := c.batch[c.pos]
			c.batch[c.pos] = nil
			c.pos++
			c.emitted++
			return Result{Set: t}, true
		}
		if c.take(false) {
			continue
		}
		if c.own == nil {
			if c.own = c.claim(); c.own == nil {
				if c.ctx.Err() == nil && c.take(true) {
					continue
				}
				c.end()
				return Result{}, false
			}
		}
		t, ok := c.own.e.Next()
		if !ok {
			c.finish(c.own)
			c.own = nil
			continue
		}
		c.emitted++
		return Result{Set: t}, true
	}
}

// end finishes the run: it stops and waits for every helper, so the
// folded counters and the failure are final, and records why the
// enumeration ended.
func (c *ParallelCursor) end() {
	c.halt()
	c.done = true
	c.mu.Lock()
	c.err = c.werr
	c.mu.Unlock()
	if c.err == nil {
		c.err = c.parent.Err()
	}
}

// halt cancels the run, waits for every helper to exit (each stops
// within one enumeration step) and folds the consumer's in-flight task.
// Idempotent.
func (c *ParallelCursor) halt() {
	if c.started {
		// Unregistered before the cancel, so a Close does its own
		// wake-up instead of starting an AfterFunc goroutine.
		c.stopWake()
	}
	c.cancel()
	if c.started {
		c.wake()
		c.wg.Wait()
	}
	if c.own != nil {
		c.finish(c.own)
		c.own = nil
	}
}

// Err returns the error that terminated the enumeration, if any —
// including ctx.Err() after a cancellation. A voluntary Close is not
// an error.
func (c *ParallelCursor) Err() error { return c.err }

// Stats snapshots the counters accumulated so far: the folded totals
// of every finished task and of the consumer's in-flight task, plus
// the cursor's own emission count. A helper's in-flight task
// contributes when it finishes (after a drain or Close the snapshot is
// complete); Emitted counts delivered results, as in the sequential
// cursor.
func (c *ParallelCursor) Stats() Stats {
	c.mu.Lock()
	s := c.folded
	c.mu.Unlock()
	if c.own != nil {
		s.Add(c.own.e.Stats())
	}
	s.Emitted = c.emitted
	return s
}

// Close abandons the enumeration: every helper is cancelled and Close
// waits for all of them to exit (each stops within one enumeration
// step), so no goroutine outlives the cursor. Idempotent; Next returns
// ok=false afterwards.
func (c *ParallelCursor) Close() {
	if c.closed {
		return
	}
	c.closed = true
	c.halt()
}

// minTaskSeeds is the smallest anchor window a pass is split into:
// below this the per-task fixed costs (stores, scanner) outweigh the
// parallelism.
const minTaskSeeds = 8

// NewParallelCursor prepares a parallel streaming enumeration of FD(R)
// under p on the goroutine calling Next plus at most workers−1 helpers
// (≤0 selects GOMAXPROCS, resolved before the layout is cut) and
// returns the merged cursor. Only the restart strategy partitions (the
// seeded/projected initialisations feed each pass from the previous
// one, which is inherently sequential), and a shared buffer Pool is
// rejected rather than raced over.
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
