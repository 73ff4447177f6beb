package fd_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	fd "repro"
)

// cancelQueries enumerates one query per mode; every one must yield at
// least two results on dirtyDB so cancellation lands mid-enumeration.
func cancelQueries() []fd.Query {
	return []fd.Query{
		{Mode: fd.ModeExact},
		{Mode: fd.ModeRanked, Rank: "fmax"},
		{Mode: fd.ModeApprox, Tau: 0.6},
		{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax"},
	}
}

// TestOpenCancellation is the acceptance criterion for context
// plumbing: cancelling mid-enumeration makes the next step return
// promptly with ctx.Err(), in every mode, and leaks no goroutine.
func TestOpenCancellation(t *testing.T) {
	db := dirtyDB(t)
	before := runtime.NumGoroutine()
	for _, q := range cancelQueries() {
		ctx, cancel := context.WithCancel(context.Background())
		rs, err := fd.Open(ctx, db, q)
		if err != nil {
			cancel()
			t.Fatalf("Open(%+v): %v", q, err)
		}
		if _, ok := rs.Next(); !ok {
			t.Fatalf("mode %s: no first result (workload too small for the test)", q.Mode)
		}
		cancel()
		if r, ok := rs.Next(); ok {
			t.Fatalf("mode %s: Next returned %v after cancellation", q.Mode, r.Set)
		}
		if err := rs.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %s: Err() = %v, want context.Canceled", q.Mode, err)
		}
		// A poisoned cursor stays poisoned.
		if _, ok := rs.Next(); ok {
			t.Fatalf("mode %s: Next yielded after a cancelled step", q.Mode)
		}
		rs.Close()
	}
	// Cursors hold no producer goroutines, so cancellation cannot leak
	// any. Allow the runtime a moment to retire unrelated goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestOpenPreCancelled checks the construction path: a context that is
// already cancelled never produces a result. The ranked modes detect
// it during their preprocessing and fail Open itself; the lazy modes
// fail on the first step.
func TestOpenPreCancelled(t *testing.T) {
	db := dirtyDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, q := range cancelQueries() {
		rs, err := fd.Open(ctx, db, q)
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("mode %s: Open error %v, want context.Canceled", q.Mode, err)
			}
			continue
		}
		if _, ok := rs.Next(); ok {
			t.Fatalf("mode %s: cancelled context still produced a result", q.Mode)
		}
		if err := rs.Err(); !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %s: Err() = %v, want context.Canceled", q.Mode, err)
		}
		rs.Close()
	}
}
