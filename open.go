package fd

import (
	"context"
	"fmt"
	"time"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/rank"
)

// Result is one full-disjunction answer: the tuple set, plus its rank
// when the producing query ranks results.
type Result struct {
	// Set is the answer tuple set.
	Set *TupleSet
	// Rank is the result's rank under the query's ranking function.
	Rank float64
	// Ranked reports whether Rank is meaningful (ranked modes only).
	Ranked bool
}

// Results is the unified pull cursor every query mode produces: one
// result per Next call with explicit suspended state. Sequential
// cursors (Workers 1, the ranked modes) hold no goroutines and can
// simply be dropped; a parallel cursor (Workers ≠ 1 on the
// parallelisable paths) holds its worker pool while live, and Close —
// or cancelling ctx, or draining it — stops every worker within one
// enumeration step, so a Closed cursor leaks nothing either way.
//
// A Results cursor is not safe for concurrent use; wrap it (as
// internal/service does) when several goroutines share one
// enumeration.
type Results interface {
	// Next produces the next result, or ok=false when the enumeration
	// is exhausted, closed, cancelled, or failed (check Err).
	Next() (Result, bool)
	// Err returns the error that terminated the enumeration, if any —
	// including ctx.Err() after a cancellation.
	Err() error
	// Stats snapshots the execution counters accumulated so far.
	Stats() Stats
	// Close abandons the enumeration; idempotent.
	Close()
}

// Open is the single execution entry point: it validates q and starts
// its enumeration over db, returning the unified Results cursor. All
// four modes — exact, ranked, approx, approx-ranked — serve through
// the same interface; K and RankTau bounds are enforced here, so a
// drained cursor is exactly the query's declared result sequence.
//
// Cancelling ctx makes an in-flight enumeration stop within one step:
// the pending Next returns ok=false promptly and Err reports
// ctx.Err(). A nil ctx means context.Background().
//
// Ranked modes pay their Fig 3 preprocessing inside Open, so every
// Next afterwards is one priority-queue extraction.
//
// Every mode runs with the §7 hash index and the join candidate index,
// and the exact and approx modes run the restart passes of Fig 1;
// there is no other engine configuration to choose (QueryOptions).
//
// Exact and approx queries whose effective Workers count exceeds one —
// the default, since Workers 0 means GOMAXPROCS — run on the parallel
// streaming executor: the result set is identical to the sequential
// path, but arrival order varies run to run (sort by canonical key, or
// set Workers 1, when a reproducible order matters).
func Open(ctx context.Context, db *Database, q Query) (Results, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if db == nil {
		return nil, fmt.Errorf("fd: nil database")
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	n := q.normalize()
	// The raw options, not n's: normalize strips the runtime-only
	// TaskObserver, which still has to reach execution.
	opts := q.Options.engine()

	// The parallelisable modes route through the streaming executor
	// when the query's effective worker count exceeds one (Workers 0
	// means GOMAXPROCS, so multi-core is the default path); the ranked
	// modes are inherently sequential and ignore Workers (see
	// QueryOptions.Workers).
	workers := q.ParallelWorkers()

	prog, delay := q.Options.Progress, q.Options.Delay
	if prog != nil {
		prog.SetPhase(obs.PhaseOpen)
		if workers > 1 {
			// The parallel paths run the partitioned layout; publish its
			// task count and count completions through the observer chain
			// (one atomic add per finished task).
			prog.SetTasksTotal(len(core.Layout(db, workers)))
			inner := opts.TaskObserver
			opts.TaskObserver = func(ts TaskSpan) {
				prog.TaskDone()
				if inner != nil {
					inner(ts)
				}
			}
		}
	}

	var (
		base Results
		err  error
	)
	switch n.Mode {
	case ModeExact:
		if workers > 1 {
			base, err = unranked(core.NewParallelCursor(ctx, db, opts, workers))
		} else {
			base, err = unranked(core.NewCursor(ctx, db, opts))
		}
	case ModeApprox:
		s, _ := SimByName(n.Sim) // resolved by Validate
		a := &approx.Amin{S: s}
		if workers > 1 {
			base, err = unranked(approx.NewParallelCursor(ctx, db, a, n.Tau, opts, workers))
		} else {
			base, err = unranked(approx.NewCursor(ctx, db, a, n.Tau, opts))
		}
	case ModeRanked:
		f, _ := RankByName(n.Rank) // resolved by Validate
		base, err = ranked(rank.NewCursor(ctx, db, f, opts))
	case ModeApproxRanked:
		f, _ := RankByName(n.Rank)
		s, _ := SimByName(n.Sim)
		base, err = ranked(rank.NewApproxCursor(ctx, db, &approx.Amin{S: s}, n.Tau, f, opts))
	default:
		return nil, fmt.Errorf("fd: unknown query mode %q", n.Mode)
	}
	if err != nil {
		return nil, err
	}

	if n.K > 0 || n.RankTau > 0 {
		base = &boundedResults{Results: base, remaining: n.K, rankTau: n.RankTau}
	}
	if prog != nil || delay != nil {
		// Outermost wrapper: the observed sequence is exactly what the
		// caller receives, after the K/RankTau bounds.
		base = newObservedResults(base, prog, delay)
	}
	return base, nil
}

// setCursor is the shape every unranked engine cursor shares —
// sequential or parallel, exact or approximate.
type setCursor interface {
	Next() (*TupleSet, bool)
	Err() error
	Stats() Stats
	Close()
}

// setResults adapts an unranked engine cursor to Results.
type setResults struct{ setCursor }

func unranked[C setCursor](c C, err error) (Results, error) {
	if err != nil {
		return nil, err
	}
	return setResults{c}, nil
}

func (r setResults) Next() (Result, bool) {
	t, ok := r.setCursor.Next()
	return Result{Set: t}, ok
}

// rankedResults adapts the ranked engine cursor to Results.
type rankedResults struct{ *rank.Cursor }

func ranked(c *rank.Cursor, err error) (Results, error) {
	if err != nil {
		return nil, err
	}
	return rankedResults{c}, nil
}

func (r rankedResults) Next() (Result, bool) {
	res, ok := r.Cursor.Next()
	return Result{Set: res.Set, Rank: res.Rank, Ranked: ok}, ok
}

// boundedResults enforces the query's K and RankTau bounds over an
// unbounded cursor. Once a bound trips, the underlying enumeration is
// closed — further results could never be served, so their suspended
// state is released immediately.
type boundedResults struct {
	Results
	remaining int     // K countdown; 0 with a K-bounded query = spent
	rankTau   float64 // stop at the first rank below this (ranked modes)
	done      bool
}

func (b *boundedResults) Next() (Result, bool) {
	if b.done {
		return Result{}, false
	}
	r, ok := b.Results.Next()
	if !ok {
		b.done = true
		return Result{}, false
	}
	if b.rankTau > 0 && r.Rank < b.rankTau {
		b.stop()
		return Result{}, false
	}
	if b.remaining > 0 {
		b.remaining--
		if b.remaining == 0 {
			// The K bound is spent with this result; release the
			// suspended state now rather than on the (possibly never
			// issued) next call.
			b.stop()
			return r, true
		}
	}
	return r, true
}

func (b *boundedResults) stop() {
	b.done = true
	b.Results.Close()
}

// observedResults layers live introspection over a cursor: it records
// the inter-result gap of every Next into a Delay tracker and keeps a
// Progress current (results emitted, tuples scanned, phase). Open adds
// it only when a tracker is attached, so the uninstrumented path pays
// nothing; instrumented, the per-result cost is one clock read, one
// Stats snapshot and a few atomic stores — never per scanned tuple.
type observedResults struct {
	Results
	prog  *obs.Progress
	delay *obs.Delay
	last  time.Time
	done  bool
}

func newObservedResults(base Results, prog *obs.Progress, delay *obs.Delay) *observedResults {
	// The first gap is anchored here, at Open's return: it measures the
	// wait for the first result, the lead term of the delay guarantee.
	prog.SetPhase(obs.PhaseEnumerate)
	return &observedResults{Results: base, prog: prog, delay: delay, last: time.Now()}
}

func (o *observedResults) Next() (Result, bool) {
	r, ok := o.Results.Next()
	if !ok {
		o.finish()
		return r, false
	}
	if o.delay != nil {
		now := time.Now()
		o.delay.Observe(now.Sub(o.last))
		o.last = now
	}
	if o.prog != nil {
		o.prog.AddEmitted(1)
		o.prog.SetScanned(int64(o.Results.Stats().TuplesScanned))
	}
	return r, true
}

func (o *observedResults) Close() {
	o.Results.Close()
	o.finish()
}

func (o *observedResults) finish() {
	if o.done {
		return
	}
	o.done = true
	if o.prog != nil {
		o.prog.SetScanned(int64(o.Results.Stats().TuplesScanned))
		o.prog.SetPhase(obs.PhaseDone)
	}
}
