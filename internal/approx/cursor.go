package approx

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/relation"
)

// tasks partitions the enumeration of AFD(R, A, τ) by core.Layout —
// the same layout the exact passes and fd.Explain use — into anchor
// windows of the suffix passes of APPROXINCREMENTALFD. The passes are
// independent (pass i enumerates over Ri..Rn from scratch and keeps
// the results whose minimal relation is i, NewPassEnumerator) and the
// windows of a pass partition its results, so every result comes from
// exactly one task.
func tasks(db *relation.Database, a Join, tau float64, opts core.Options, workers int) ([]core.Task, error) {
	if a == nil {
		return nil, fmt.Errorf("approx: nil approximate join function")
	}
	if tau <= 0 || tau > 1 {
		return nil, fmt.Errorf("approx: threshold %v outside (0,1]", tau)
	}
	return core.LayoutTasks(core.Layout(db, workers), func(m core.TaskMeta) (core.TaskEnumerator, error) {
		return NewPassEnumerator(db, m.Pass, m.SeedLo, m.SeedHi, a, tau, opts)
	}), nil
}

// NewCursor prepares a pull-based enumeration of AFD(R, A, τ) on the
// sequential pass driver; no work happens until the first Next call,
// and the cursor holds no goroutine. Cancelling ctx makes the next
// step fail promptly: Next returns ok=false within one
// APPROXGETNEXTRESULT iteration and Err reports ctx.Err(). A nil ctx
// means context.Background().
func NewCursor(ctx context.Context, db *relation.Database, a Join, tau float64, opts core.Options) (*core.Cursor, error) {
	ts, err := tasks(db, a, tau, opts, 1)
	if err != nil {
		return nil, err
	}
	return core.NewSequentialCursor(ctx, ts), nil
}

// NewParallelCursor starts a parallel streaming enumeration of
// AFD(R, A, τ) on a pool of at most workers goroutines (≤0 selects
// GOMAXPROCS), running the passes of NewCursor — split into anchor
// windows when workers exceed the relation count. A shared buffer
// Pool is rejected rather than raced over.
//
// The returned cursor has the core.ParallelCursor contract: merged
// stream, nondeterministic arrival order, workers stopped within one
// step by ctx or Close.
func NewParallelCursor(ctx context.Context, db *relation.Database, a Join, tau float64, opts core.Options, workers int) (*core.ParallelCursor, error) {
	if opts.Pool != nil {
		return nil, fmt.Errorf("approx: parallel execution does not support a shared buffer pool")
	}
	ts, err := tasks(db, a, tau, opts, workers)
	if err != nil {
		return nil, err
	}
	return core.NewTaskCursor(ctx, ts, workers, opts.TaskObserver), nil
}
