package fd

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/rank"
)

// Result is one full-disjunction answer: the tuple set (Set), plus its
// rank (Rank) when the producing query ranks results (Ranked).
type Result = core.Result

// Every engine cursor is a Results as it stands; Open wraps one only
// for the K/RankTau bounds.
var (
	_ Results = (*core.Cursor)(nil)
	_ Results = (*core.ParallelCursor)(nil)
	_ Results = (*rank.Cursor)(nil)
)

// Results is the unified pull cursor every query mode produces: one
// result per Next call with explicit suspended state. Sequential
// cursors (Workers 1, the ranked modes) hold no goroutines and can
// simply be dropped; a parallel cursor (Workers ≠ 1 on the
// parallelisable paths) holds its helper goroutines from its first
// Next while live, and Close — or cancelling ctx, or draining it —
// stops every helper within one enumeration step, so a Closed cursor
// leaks nothing either way.
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

	// The query's family picks the join predicate, its mode whether
	// results are ranked.
	var (
		p    = n.Family().Predicate()
		base Results
		err  error
	)
	switch {
	case n.Mode.ranked():
		f, _ := rankByName(n.Rank) // resolved by Validate
		base, err = rank.NewCursor(ctx, db, p, f, opts)
	case workers > 1:
		base, err = core.NewParallelCursor(ctx, db, p, opts, workers)
	default:
		base, err = core.NewCursor(ctx, db, p, opts)
	}
	if err != nil {
		return nil, err
	}

	if n.K > 0 || n.RankTau > 0 {
		base = &boundedResults{Results: base, remaining: n.K, rankTau: n.RankTau}
	}
	return base, nil
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
