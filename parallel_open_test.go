package fd_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// drainKeys drains fd.Open(q) and returns the result-key multiset plus
// the cursor's final stats.
func drainKeys(t *testing.T, db *fd.Database, q fd.Query) (map[string]int, fd.Stats) {
	t.Helper()
	rs, err := fd.Open(context.Background(), db, q)
	if err != nil {
		t.Fatalf("Open(%+v): %v", q, err)
	}
	defer rs.Close()
	keys := make(map[string]int)
	n := 0
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		keys[r.Set.Key()]++
		n++
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("drain(%+v): %v", q, err)
	}
	stats := rs.Stats()
	if stats.Emitted != n {
		t.Fatalf("Workers=%d: Emitted=%d but %d results delivered", q.Options.Workers, stats.Emitted, n)
	}
	return keys, stats
}

func sameMultiset(t *testing.T, label string, got, want map[string]int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d distinct results, want %d", label, len(got), len(want))
	}
	for k, n := range want {
		if got[k] != n {
			t.Fatalf("%s: result %s has multiplicity %d, want %d", label, k, got[k], n)
		}
	}
}

// TestPropertyParallelMatchesSequential is the tentpole property:
// across randomized chain/star/clique workloads, exact and approx
// modes, and Workers ∈ {1, 2, GOMAXPROCS}, the parallel streaming
// cursor — through fd.Open, and for exact mode also the engine cursor
// under random index flags — delivers exactly the sequential cursor's
// result multiset, and
// its merged counters stay consistent with the sequential run (the
// pass partition does identical work; anchor-window block splits never
// do more). Run under -race this also exercises the merge path for
// data races.
func TestPropertyParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	shapes := []struct {
		name string
		gen  func(workload.Config) (*fd.Database, error)
	}{
		{"chain", workload.Chain},
		{"star", workload.Star},
		{"clique", workload.Clique},
	}
	workerCounts := []int{2, runtime.GOMAXPROCS(0)}
	for iter := 0; iter < 4; iter++ {
		for _, shape := range shapes {
			cfg := workload.Config{
				Relations:         3 + rng.Intn(2),
				TuplesPerRelation: 5 + rng.Intn(6),
				Domain:            3 + rng.Intn(2),
				NullRate:          0.1,
				ImpMax:            10,
				Seed:              rng.Int63(),
			}
			if shape.name == "clique" {
				cfg.TuplesPerRelation = 3 + rng.Intn(3)
			}
			db, err := shape.gen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// fd.Open, and the engine cursors under random index flags.
			opts := core.Options{UseIndex: rng.Intn(2) == 0, UseJoinIndex: rng.Intn(2) == 0}
			drains := map[string]func(workers int) (map[string]int, fd.Stats){
				"fd.Open": func(workers int) (map[string]int, fd.Stats) {
					return drainKeys(t, db, fd.Query{Options: fd.QueryOptions{Workers: workers}})
				},
				fmt.Sprintf("%+v", opts): func(workers int) (map[string]int, fd.Stats) {
					var (
						keys  map[string]int
						stats fd.Stats
						err   error
					)
					if workers == 1 {
						keys, stats, err = drainCursor(core.NewCursor(context.Background(), db, core.JCC, opts))
					} else {
						keys, stats, err = drainCursor(core.NewParallelCursor(context.Background(), db, core.JCC, opts, workers))
					}
					if err != nil {
						t.Fatal(err)
					}
					return keys, stats
				},
			}
			for name, drain := range drains {
				label := shape.name + "/exact " + name
				wantKeys, wantStats := drain(1)
				for _, w := range workerCounts {
					gotKeys, gotStats := drain(w)
					sameMultiset(t, label, gotKeys, wantKeys)
					if gotStats.JCCChecks < wantStats.JCCChecks || gotStats.JCCChecks > 4*wantStats.JCCChecks {
						t.Fatalf("%s Workers=%d: JCCChecks=%d outside [%d, %d]",
							label, w, gotStats.JCCChecks, wantStats.JCCChecks, 4*wantStats.JCCChecks)
					}
				}
			}
		}

		// Approx: dirty chain, pass-level partition.
		dcfg := workload.DirtyConfig{
			Config:    workload.Config{Relations: 3, TuplesPerRelation: 6 + rng.Intn(4), Domain: 3, Seed: rng.Int63()},
			ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
		}
		db, err := workload.DirtyChain(dcfg)
		if err != nil {
			t.Fatal(err)
		}
		approxQ := fd.Query{Mode: fd.ModeApprox, Tau: 0.6 + 0.1*float64(rng.Intn(3)),
			Options: fd.QueryOptions{Workers: 1}}
		wantKeys, wantStats := drainKeys(t, db, approxQ)
		for _, w := range workerCounts {
			q := approxQ
			q.Options.Workers = w
			gotKeys, gotStats := drainKeys(t, db, q)
			sameMultiset(t, "approx", gotKeys, wantKeys)
			if gotStats.JCCChecks != wantStats.JCCChecks {
				t.Fatalf("approx Workers=%d: JCCChecks=%d, want %d (pass partition does identical work)",
					w, gotStats.JCCChecks, wantStats.JCCChecks)
			}
		}
	}

	// One larger chain forces intra-pass block splits (workers > n and
	// ≥ 2×minTaskSeeds tuples per relation): the multiset must survive
	// the finer partition, and the anchor windows do no more work than
	// the sequential passes — a block task reaches its in-window anchors
	// only from in-window sets.
	db, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	seq := fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 1}}
	wantKeys, wantStats := drainKeys(t, db, seq)
	par := seq
	par.Options.Workers = 8
	gotKeys, gotStats := drainKeys(t, db, par)
	sameMultiset(t, "chain/block-split", gotKeys, wantKeys)
	if gotStats.JCCChecks > wantStats.JCCChecks {
		t.Fatalf("block-split: JCCChecks=%d, more than the sequential %d", gotStats.JCCChecks, wantStats.JCCChecks)
	}

	// The approximate passes block-split through the same layout.
	db, err = workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 18, Domain: 3, Seed: 7},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	seq = fd.Query{Mode: fd.ModeApprox, Tau: 0.6, Options: fd.QueryOptions{Workers: 1}}
	wantKeys, _ = drainKeys(t, db, seq)
	par = seq
	par.Options.Workers = 8
	plan, err := fd.Explain(db, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Strategy.Tasks) <= db.NumRelations() {
		t.Fatalf("approx block-split: %d tasks, want more than the %d passes", len(plan.Strategy.Tasks), db.NumRelations())
	}
	gotKeys, _ = drainKeys(t, db, par)
	sameMultiset(t, "approx/block-split", gotKeys, wantKeys)
}

// TestParallelOpenCloseAndCancelLeak is the acceptance criterion for
// goroutine hygiene: a parallel cursor abandoned early by Close, and
// one cancelled mid-stream, both return every worker goroutine to the
// runtime.
func TestParallelOpenCloseAndCancelLeak(t *testing.T) {
	chainDB, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	dirty := dirtyDB(t)
	baseline := runtime.NumGoroutine()

	// Early Close, exact and approx.
	for _, q := range []struct {
		db   *fd.Database
		spec fd.Query
	}{
		{chainDB, fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 4}}},
		{dirty, fd.Query{Mode: fd.ModeApprox, Tau: 0.6, Options: fd.QueryOptions{Workers: 4}}},
	} {
		rs, err := fd.Open(context.Background(), q.db, q.spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := rs.Next(); !ok {
			t.Fatalf("mode %s: no first result", q.spec.Mode)
		}
		rs.Close()
		if err := rs.Err(); err != nil {
			t.Fatalf("mode %s: voluntary Close set Err: %v", q.spec.Mode, err)
		}
	}

	// Cancellation mid-stream.
	ctx, cancel := context.WithCancel(context.Background())
	rs, err := fd.Open(ctx, chainDB, fd.Query{Mode: fd.ModeExact,
		Options: fd.QueryOptions{Workers: 4}})
	if err != nil {
		cancel()
		t.Fatal(err)
	}
	if _, ok := rs.Next(); !ok {
		t.Fatal("no first result")
	}
	cancel()
	if _, ok := rs.Next(); ok {
		t.Fatal("Next yielded after cancellation")
	}
	if err := rs.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", err)
	}
	rs.Close()

	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestParallelKBound checks the K bound composes with the parallel
// cursor: exactly K results, then the pool is torn down.
func TestParallelKBound(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 16, Domain: 4, NullRate: 0.1, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	got, _ := drainKeys(t, db, fd.Query{Mode: fd.ModeExact, K: 5,
		Options: fd.QueryOptions{Workers: 4}})
	total := 0
	for _, n := range got {
		total += n
	}
	if total != 5 {
		t.Fatalf("K=5 delivered %d results", total)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines grew from %d to %d", baseline, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}
