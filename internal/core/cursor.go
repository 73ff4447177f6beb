package core

import (
	"context"
	"fmt"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Result is one full-disjunction answer: the tuple set, plus its rank
// when the producing cursor ranks results. Every engine cursor —
// sequential, parallel and ranked — delivers this one shape.
type Result struct {
	// Set is the answer tuple set.
	Set *tupleset.Set
	// Rank is the result's rank under the query's ranking function.
	Rank float64
	// Ranked reports whether Rank is meaningful (ranked modes only).
	Ranked bool
}

// Cursor is the sequential pass driver of every unranked family: it
// walks a task list in order, in the caller's goroutine, producing one
// owned result per Next call. For the restart strategy the list is
// built from Layout(db, 1) — one full-window task per pass, the same
// []Task shape NewTaskCursor runs in parallel. The suspended
// state is explicit (the current task's enumerator and, for the seeded
// strategies, the store of previously printed results), so a cursor
// holds no goroutine and abandoning one with Close leaks nothing.
//
// A Cursor is not safe for concurrent use; wrap it (as internal/service
// does) when several goroutines share one enumeration.
type Cursor struct {
	ctx   context.Context
	tasks []Task
	next  int            // index of the next task to open
	e     TaskEnumerator // the in-flight task's enumeration
	// printed, under the seeded strategies only, holds every delivered
	// result, and pass is the in-flight task's pass: a result a printed
	// set contains is suppressed (§7).
	printed *CompleteStore
	pass    int
	// total accumulates the counters of finished tasks (plus the work
	// of the seeded strategies' printed filter); the counters of the
	// in-flight task live in e until foldTask.
	total  Stats
	err    error
	closed bool
}

// NewCursor prepares a pull-based enumeration of FD(R) under p with the
// initialisation strategy selected in opts. No work happens until the
// first Next call. Cancelling ctx makes the next step fail promptly:
// Next returns ok=false within one GetNextResult iteration and Err
// reports ctx.Err(). A nil ctx means context.Background().
//
// The restart strategy runs INCREMENTALFD over Ri..Rn for every i and
// keeps the results no tuple of R1..Ri-1 extends — those whose minimal
// relation is i, the rule below Corollary 4.7 — so its passes need no
// ownership filter (NewPassEnumerator). The §7 seeded/projected
// strategies scan only Ri..Rn in pass i, seed Incomplete from the
// previously printed results, and suppress results contained in a
// printed set; they run under JCC only.
func NewCursor(ctx context.Context, db *relation.Database, p Predicate, opts Options) (*Cursor, error) {
	if p == nil {
		return nil, fmt.Errorf("core: nil join predicate")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	u := tupleset.NewUniverse(db)
	c := &Cursor{ctx: ctx}
	if opts.Strategy == InitSingletons {
		c.tasks = passTasks(u, p, opts, 1)
		return c, nil
	}
	if p != JCC {
		return nil, fmt.Errorf("core: the %s strategy runs under the exact join predicate only", opts.Strategy)
	}
	c.printed = NewCompleteStore(u, true)
	for _, m := range Layout(db, 1) {
		c.tasks = append(c.tasks, Task{
			Label: m.Label,
			Open: func() (TaskEnumerator, error) {
				c.pass = m.Pass
				init := seedInit(u, m.Pass, opts, c.printed, &c.total)
				return NewSeededEnumerator(u, JCC, m.Pass, opts, init, m.Pass)
			},
		})
	}
	return c, nil
}

// Next produces the next owned result, or ok=false when the
// enumeration is exhausted, closed, or failed (check Err).
func (c *Cursor) Next() (Result, bool) {
	if c.closed || c.err != nil {
		return Result{}, false
	}
	for {
		// One check per GetNextResult iteration: a cancelled enumeration
		// stops within one step (the paper's unit of incremental work)
		// without paying a context poll on every scanned tuple.
		if err := c.ctx.Err(); err != nil {
			c.err = err
			return Result{}, false
		}
		if c.e == nil {
			if c.next >= len(c.tasks) {
				return Result{}, false
			}
			task := c.tasks[c.next]
			c.next++
			e, err := task.Open()
			if err != nil {
				c.err = err
				return Result{}, false
			}
			c.e = e
		}
		t, ok := c.e.Next()
		if !ok {
			c.foldTask()
			continue
		}
		if c.printed != nil {
			anchor, _ := t.Member(c.pass)
			if c.printed.ContainsSuperset(t, anchor, &c.total) {
				continue
			}
			c.printed.Add(t)
		}
		c.total.Emitted++
		return Result{Set: t}, true
	}
}

// foldTask folds the in-flight enumerator's counters into the total.
// Emitted is zeroed first: the cursor counts deliveries itself (a
// seeded task's enumerator also counts results its printed filter
// suppresses).
func (c *Cursor) foldTask() {
	if c.e == nil {
		return
	}
	s := c.e.Stats()
	s.Emitted = 0
	c.total.Add(s)
	c.e = nil
}

// Stats returns a snapshot of the counters accumulated so far,
// including the in-flight task.
func (c *Cursor) Stats() Stats {
	s := c.total
	if c.e != nil {
		es := c.e.Stats()
		es.Emitted = 0
		s.Add(es)
	}
	return s
}

// Err returns the error that terminated the enumeration, if any.
func (c *Cursor) Err() error { return c.err }

// Close abandons the enumeration. It is idempotent; Next returns
// ok=false afterwards. Closing releases no external resources — the
// cursor holds only heap state — but folds the in-flight task so Stats
// stays accurate.
func (c *Cursor) Close() {
	if c.closed {
		return
	}
	c.foldTask()
	c.closed = true
}

// Drain pulls the cursor dry and closes it, returning every result with
// the final counters.
func (c *Cursor) Drain() ([]*tupleset.Set, Stats, error) {
	defer c.Close()
	var out []*tupleset.Set
	for {
		r, ok := c.Next()
		if !ok {
			return out, c.Stats(), c.Err()
		}
		out = append(out, r.Set)
	}
}
