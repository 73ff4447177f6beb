package fd_test

import (
	"context"
	"sync"
	"testing"
	"time"

	fd "repro"
)

// TestDelayObservationsSumToWallTime is the delay-tracker property: the
// observed inter-result gaps of a drained cursor telescope — their sum
// is the wall time from Open's return to the last result, within clock
// tolerance, and every result contributes exactly one gap. Checked for
// each cursor family fd.Open routes to.
func TestDelayObservationsSumToWallTime(t *testing.T) {
	chain := explainDB(t, "chain")
	dirty := dirtyDB(t)
	cases := []struct {
		name string
		db   *fd.Database
		q    fd.Query
	}{
		{"exact", chain, fd.Query{Mode: fd.ModeExact,
			Options: fd.QueryOptions{Workers: 1}}},
		{"exact-parallel", chain, fd.Query{Mode: fd.ModeExact,
			Options: fd.QueryOptions{Workers: 4}}},
		{"ranked", chain, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 20}},
		{"approx", dirty, fd.Query{Mode: fd.ModeApprox, Tau: 0.6,
			Options: fd.QueryOptions{Workers: 1}}},
		{"approx-ranked", dirty, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6,
			Rank: "fmax", K: 10}},
	}
	for _, c := range cases {
		q := c.q
		delay := fd.NewDelay(0)
		q.Options.Delay = delay
		start := time.Now()
		rs, err := fd.Open(context.Background(), c.db, q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		results := 0
		for _, ok := rs.Next(); ok; _, ok = rs.Next() {
			results++
		}
		wall := time.Since(start)
		if err := rs.Err(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		rs.Close()
		if results == 0 {
			t.Fatalf("%s: no results to observe", c.name)
		}
		s := delay.Snapshot()
		if s.Count != int64(results) {
			t.Errorf("%s: %d delay observations for %d results", c.name, s.Count, results)
		}
		// The gaps are anchored at Open's return, so their sum can never
		// exceed the Open-to-drain wall time; and since the drain loop
		// does nothing between Next calls, they account for almost all of
		// it (the slack is Open itself plus per-call clock jitter).
		wallMs := float64(wall.Microseconds()) / 1e3
		if s.SumMillis > wallMs+1 {
			t.Errorf("%s: delay sum %.3fms exceeds wall time %.3fms", c.name, s.SumMillis, wallMs)
		}
		if s.SumMillis < 0 || s.MaxMillis > wallMs+1 {
			t.Errorf("%s: implausible summary %+v for wall %.3fms", c.name, s, wallMs)
		}
	}
}

// TestProgressConcurrentWithNext is the -race acceptance criterion:
// Progress() snapshots taken concurrently with the Next loop are safe
// and monotone, and the final snapshot accounts for every result and
// every partitioned task.
func TestProgressConcurrentWithNext(t *testing.T) {
	db := explainDB(t, "chain")
	for _, workers := range []int{1, 4} {
		prog := &fd.Progress{}
		q := fd.Query{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: workers, Progress: prog}}
		plan, err := fd.Explain(db, q)
		if err != nil {
			t.Fatal(err)
		}

		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEmitted, lastTasks int64
			for {
				s := prog.Snapshot()
				if s.ResultsEmitted < lastEmitted || s.TasksDone < lastTasks {
					t.Errorf("workers=%d: progress went backwards: %+v after emitted=%d tasks=%d",
						workers, s, lastEmitted, lastTasks)
					return
				}
				lastEmitted, lastTasks = s.ResultsEmitted, s.TasksDone
				select {
				case <-stop:
					return
				default:
				}
			}
		}()

		rs, err := fd.Open(context.Background(), db, q)
		if err != nil {
			t.Fatal(err)
		}
		results := 0
		for _, ok := rs.Next(); ok; _, ok = rs.Next() {
			results++
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		rs.Close()
		close(stop)
		wg.Wait()

		s := prog.Snapshot()
		if s.Phase != "done" {
			t.Errorf("workers=%d: final phase %q, want done", workers, s.Phase)
		}
		if s.ResultsEmitted != int64(results) {
			t.Errorf("workers=%d: ResultsEmitted=%d, %d results delivered", workers, s.ResultsEmitted, results)
		}
		if s.TuplesScanned == 0 {
			t.Errorf("workers=%d: TuplesScanned stayed zero", workers)
		}
		if workers > 1 {
			if s.TasksTotal != int64(len(plan.Strategy.Tasks)) || s.TasksDone != s.TasksTotal {
				t.Errorf("workers=%d: tasks %d/%d, plan promised %d",
					workers, s.TasksDone, s.TasksTotal, len(plan.Strategy.Tasks))
			}
		} else if s.TasksTotal != 0 {
			t.Errorf("workers=1: TasksTotal=%d for an unpartitioned run", s.TasksTotal)
		}
	}
}

// TestProgressEarlyClose: a cursor abandoned before exhaustion still
// reaches the done phase, so pollers never hang on "enumerate".
func TestProgressEarlyClose(t *testing.T) {
	db := explainDB(t, "chain")
	prog := &fd.Progress{}
	rs, err := fd.Open(context.Background(), db, fd.Query{Mode: fd.ModeExact,
		Options: fd.QueryOptions{Workers: 1, Progress: prog}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rs.Next(); !ok {
		t.Fatal("no first result")
	}
	if got := prog.Snapshot().Phase; got != "enumerate" {
		t.Fatalf("mid-drain phase %q, want enumerate", got)
	}
	rs.Close()
	if got := prog.Snapshot().Phase; got != "done" {
		t.Errorf("post-Close phase %q, want done", got)
	}
}
