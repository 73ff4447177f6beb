package fd_test

import (
	"context"
	"testing"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/workload"
)

// drain pulls an fd.Open cursor dry and returns the result sequence
// with the final stats — the one drain the tests, examples and
// benchmarks of this package run their queries through.
func drain(db *fd.Database, q fd.Query) ([]fd.Result, fd.Stats, error) {
	rs, err := fd.Open(context.Background(), db, q)
	if err != nil {
		return nil, fd.Stats{}, err
	}
	defer rs.Close()
	var out []fd.Result
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		out = append(out, r)
	}
	return out, rs.Stats(), rs.Err()
}

// drainSets is drain keeping only the result sets.
func drainSets(db *fd.Database, q fd.Query) ([]*fd.TupleSet, fd.Stats, error) {
	rs, stats, err := drain(db, q)
	sets := make([]*fd.TupleSet, len(rs))
	for i, r := range rs {
		sets[i] = r.Set
	}
	return sets, stats, err
}

// openDrain is drain failing the test on error.
func openDrain(t testing.TB, db *fd.Database, q fd.Query) ([]fd.Result, fd.Stats) {
	t.Helper()
	out, stats, err := drain(db, q)
	if err != nil {
		t.Fatalf("Open(%+v): %v", q, err)
	}
	return out, stats
}

// exactQuery is the exact query over o on the sequential path
// (Workers 1), whose result order is reproducible.
func exactQuery(o fd.QueryOptions) fd.Query {
	o.Workers = 1
	return fd.Query{Mode: fd.ModeExact, Options: o}
}

// equivDB is a chain workload small enough to drain in every mode but
// large enough that sequences are non-trivial.
func equivDB(t *testing.T) *fd.Database {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, ImpMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// dirtyDB carries misspellings and probabilities for the approx modes.
func dirtyDB(t *testing.T) *fd.Database {
	t.Helper()
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 3, TuplesPerRelation: 8, Domain: 3, Seed: 23},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// pinnedCase is one Workers-1 fd.Open drain whose full engine Stats
// are pinned to literal values. The counters are deterministic on the
// sequential paths, so any drift means the engine did different work.
type pinnedCase struct {
	name  string
	db    func(*testing.T) *fd.Database
	q     fd.Query
	stats fd.Stats
}

var pinnedIdx = fd.QueryOptions{UseIndex: true, UseJoinIndex: true, Workers: 1}

func withStrategy(o fd.QueryOptions, s string) fd.QueryOptions { o.Strategy = s; return o }

var pinnedCases = []pinnedCase{
	{"exact/singletons", equivDB, fd.Query{Options: withStrategy(pinnedIdx, "singletons")},
		fd.Stats{Iterations: 155, Emitted: 103, JCCChecks: 2469, TuplesScanned: 1879, ListScans: 3310, PageReads: 1879, IndexProbes: 847, TuplesSkipped: 8297, SigHits: 1203, SigRebuilds: 409, MaxResident: 100}},
	{"exact/seeded", equivDB, fd.Query{Options: withStrategy(pinnedIdx, "seeded")},
		fd.Stats{Iterations: 403, Emitted: 103, JCCChecks: 5351, TuplesScanned: 3290, ListScans: 9466, PageReads: 3290, IndexProbes: 1520, TuplesSkipped: 13398, SigHits: 3081, SigRebuilds: 808, MaxResident: 103}},
	{"exact/projected", equivDB, fd.Query{Options: withStrategy(pinnedIdx, "projected")},
		fd.Stats{Iterations: 155, Emitted: 103, JCCChecks: 2438, TuplesScanned: 1802, ListScans: 3824, PageReads: 1802, IndexProbes: 782, TuplesSkipped: 12214, SigHits: 1184, SigRebuilds: 404, MaxResident: 100}},
	{"approx", dirtyDB, fd.Query{Mode: fd.ModeApprox, Tau: 0.7, Options: pinnedIdx},
		fd.Stats{Iterations: 25, Emitted: 12, JCCChecks: 128, TuplesScanned: 140, ListScans: 101, PageReads: 140, IndexProbes: 78, TuplesSkipped: 1068, SigHits: 0, SigRebuilds: 0, MaxResident: 12}},
	{"approx/sweep", dirtyDB, fd.Query{Mode: fd.ModeApprox, Tau: 0.7,
		Options: fd.QueryOptions{UseIndex: true, Workers: 1}},
		fd.Stats{Iterations: 25, Emitted: 12, JCCChecks: 395, TuplesScanned: 1094, ListScans: 199, PageReads: 1094, IndexProbes: 0, TuplesSkipped: 0, SigHits: 0, SigRebuilds: 0, MaxResident: 12}},
	{"approx/exact-sim", equivDB, fd.Query{Mode: fd.ModeApprox, Tau: 1, Sim: "exact", Options: pinnedIdx},
		fd.Stats{Iterations: 155, Emitted: 103, JCCChecks: 1583, TuplesScanned: 1879, ListScans: 3683, PageReads: 1879, IndexProbes: 847, TuplesSkipped: 8297, SigHits: 0, SigRebuilds: 0, MaxResident: 100}},
	{"ranked/fmax", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax",
		Options: fd.QueryOptions{UseIndex: true}},
		fd.Stats{Iterations: 120, Emitted: 103, JCCChecks: 9686, TuplesScanned: 9024, ListScans: 4636, PageReads: 9024, IndexProbes: 0, TuplesSkipped: 0, SigHits: 1930, SigRebuilds: 513, MaxResident: 0}},
	{"ranked/pairsum", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "pairsum", Options: pinnedIdx},
		fd.Stats{Iterations: 213, Emitted: 103, JCCChecks: 16335, TuplesScanned: 3079, ListScans: 8970, PageReads: 3079, IndexProbes: 1335, TuplesSkipped: 12921, SigHits: 14171, SigRebuilds: 618, MaxResident: 0}},
	{"approx-ranked/fmax", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", Options: pinnedIdx},
		fd.Stats{Iterations: 44, Emitted: 32, JCCChecks: 383, TuplesScanned: 472, ListScans: 723, PageReads: 472, IndexProbes: 197, TuplesSkipped: 2192, SigHits: 0, SigRebuilds: 0, MaxResident: 0}},
	{"approx-ranked/pairsum", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "pairsum", Options: pinnedIdx},
		fd.Stats{Iterations: 69, Emitted: 32, JCCChecks: 647, TuplesScanned: 694, ListScans: 1109, PageReads: 694, IndexProbes: 285, TuplesSkipped: 3026, SigHits: 0, SigRebuilds: 0, MaxResident: 0}},
	{"exact/K", equivDB, fd.Query{K: 5, Options: fd.QueryOptions{UseIndex: true, Workers: 1}},
		fd.Stats{Iterations: 5, Emitted: 5, JCCChecks: 465, TuplesScanned: 384, ListScans: 144, PageReads: 384, IndexProbes: 0, TuplesSkipped: 0, SigHits: 135, SigRebuilds: 59, MaxResident: 34}},
	{"ranked/K", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 4,
		Options: fd.QueryOptions{UseIndex: true}},
		fd.Stats{Iterations: 4, Emitted: 4, JCCChecks: 453, TuplesScanned: 320, ListScans: 84, PageReads: 320, IndexProbes: 0, TuplesSkipped: 0, SigHits: 179, SigRebuilds: 40, MaxResident: 0}},
	{"ranked/RankTau", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: 9,
		Options: fd.QueryOptions{UseIndex: true}},
		fd.Stats{Iterations: 60, Emitted: 59, JCCChecks: 5160, TuplesScanned: 4224, ListScans: 2380, PageReads: 4224, IndexProbes: 0, TuplesSkipped: 0, SigHits: 1504, SigRebuilds: 415, MaxResident: 0}},
	{"approx-ranked/K", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", K: 3, Options: pinnedIdx},
		fd.Stats{Iterations: 3, Emitted: 3, JCCChecks: 15, TuplesScanned: 21, ListScans: 4, PageReads: 21, IndexProbes: 12, TuplesSkipped: 171, SigHits: 0, SigRebuilds: 0, MaxResident: 0}},
	{"approx-ranked/RankTau", equivDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", RankTau: 9, Options: pinnedIdx},
		fd.Stats{Iterations: 60, Emitted: 59, JCCChecks: 806, TuplesScanned: 887, ListScans: 2157, PageReads: 887, IndexProbes: 380, TuplesSkipped: 3497, SigHits: 0, SigRebuilds: 0, MaxResident: 0}},
}

// TestOpenPinnedStats pins the engine work of every mode: the full
// Stats of a Workers-1 drain for exact (each init strategy), approx,
// ranked and approx-ranked queries, and for K- and RankTau-bounded
// ones. A bounded drain must also be exactly the matching prefix of
// its unbounded drain, ranks included.
func TestOpenPinnedStats(t *testing.T) {
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			got, stats := openDrain(t, db, c.q)
			if stats != c.stats {
				t.Errorf("stats drifted:\n got  %#v\n want %#v", stats, c.stats)
			}
			// A RankTau bound reads one result past its cut off the
			// engine; every other drain delivers all the engine emitted.
			if c.q.RankTau == 0 && stats.Emitted != len(got) {
				t.Errorf("Emitted = %d, drained %d", stats.Emitted, len(got))
			}
			if c.q.K == 0 && c.q.RankTau == 0 {
				return
			}
			unbounded := c.q
			unbounded.K, unbounded.RankTau = 0, 0
			all, _ := openDrain(t, db, unbounded)
			n := 0
			for n < len(all) && (c.q.K == 0 || n < c.q.K) && all[n].Rank >= c.q.RankTau {
				n++
			}
			if n == 0 || n == len(all) {
				t.Fatalf("bound keeps %d of %d results; pick one that cuts the sequence", n, len(all))
			}
			sameSequence(t, c.name, got, all[:n])
		})
	}
}

func sameSequence(t *testing.T, label string, got, want []fd.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i].Set.Key() != want[i].Set.Key() {
			t.Fatalf("%s: sequence differs at %d: %q vs %q", label, i, got[i].Set.Key(), want[i].Set.Key())
		}
		if got[i].Ranked != want[i].Ranked || got[i].Rank != want[i].Rank {
			t.Fatalf("%s: rank differs at %d: %v vs %v", label, i, got[i], want[i])
		}
	}
}

// TestOpenEquivalentToExactWrappers proves fd.Open coincides with the
// exact engine entry points the removed FullDisjunction and Stream
// wrappers delegated to: the full drain under every init strategy,
// stats included, and the K-bounded prefix.
func TestOpenEquivalentToExactWrappers(t *testing.T) {
	db := equivDB(t)
	for _, strategy := range []string{"singletons", "seeded", "projected"} {
		strat, err := fd.ParseInitStrategy(strategy)
		if err != nil {
			t.Fatal(err)
		}
		opts := core.Options{UseIndex: true, UseJoinIndex: true, Strategy: strat}
		wantSets, wantStats, err := core.FullDisjunction(db, opts)
		if err != nil {
			t.Fatal(err)
		}
		// Workers pinned to 1: the engine cursor is sequential, and on
		// a multicore box Workers 0 would resolve to a parallel cursor
		// whose arrival order is not the canonical sequence.
		got, gotStats := openDrain(t, db, exactQuery(fd.QueryOptions{UseIndex: true, UseJoinIndex: true, Strategy: strategy}))
		sameSequence(t, "exact/"+strategy, got, unrankedResults(wantSets))
		if gotStats != wantStats {
			t.Errorf("exact/%s stats differ:\n open   %+v\n engine %+v", strategy, gotStats, wantStats)
		}
	}

	// K-bounded prefix ≡ the engine cursor stopped after K results.
	c, err := core.NewCursor(context.Background(), db, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var prefix []*fd.TupleSet
	for len(prefix) < 5 {
		s, ok := c.Next()
		if !ok {
			break
		}
		prefix = append(prefix, s)
	}
	c.Close()
	qk := exactQuery(fd.QueryOptions{UseIndex: true})
	qk.K = 5
	got, gotStats := openDrain(t, db, qk)
	sameSequence(t, "exact/K", got, unrankedResults(prefix))
	if wantStats := c.Stats(); gotStats != wantStats {
		t.Errorf("exact/K stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}
}

// TestOpenEquivalentToRankedWrappers proves fd.Open coincides with the
// ranked engine cursor the removed StreamRanked, TopK and Threshold
// wrappers delegated to, ranks and stats included.
func TestOpenEquivalentToRankedWrappers(t *testing.T) {
	db := equivDB(t)
	open := func() *rank.Cursor {
		c, err := rank.NewCursor(context.Background(), db, rank.FMax{}, core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	qopts := fd.QueryOptions{UseIndex: true}

	want, wantStats := rankedPrefix(open(), -1, 0)
	got, gotStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", Options: qopts})
	sameSequence(t, "ranked", got, want)
	if gotStats != wantStats {
		t.Errorf("ranked stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}

	top, topStats := rankedPrefix(open(), 4, 0)
	gotTop, gotTopStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 4, Options: qopts})
	sameSequence(t, "ranked/K", gotTop, top)
	if gotTopStats != topStats {
		t.Errorf("top-k stats differ:\n open   %+v\n engine %+v", gotTopStats, topStats)
	}

	tau := want[len(want)/2].Rank
	thr, thrStats := rankedPrefix(open(), -1, tau)
	gotThr, gotThrStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: tau, Options: qopts})
	sameSequence(t, "ranked/RankTau", gotThr, thr)
	if gotThrStats != thrStats {
		t.Errorf("threshold stats differ:\n open   %+v\n engine %+v", gotThrStats, thrStats)
	}
}

// TestOpenEquivalentToApproxWrappers proves fd.Open coincides with the
// approximate engine cursors the removed ApproxStream,
// ApproxStreamRanked, ApproxTopK and ApproxThreshold wrappers
// delegated to.
func TestOpenEquivalentToApproxWrappers(t *testing.T) {
	db := dirtyDB(t)
	amin := &approx.Amin{S: approx.LevenshteinSim{}}
	// The wrappers ran with the hash index on; the equivalent query
	// spells it out.
	opts := core.Options{UseIndex: true}

	c, err := approx.NewCursor(context.Background(), db, amin, 0.7, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantSets, wantStats, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// Workers pinned to 1 so the arrival order matches the sequential
	// engine cursor on any GOMAXPROCS.
	q := fd.Query{Mode: fd.ModeApprox, Tau: 0.7, Options: fd.QueryOptions{UseIndex: true, Workers: 1}}
	got, gotStats := openDrain(t, db, q)
	sameSequence(t, "approx", got, unrankedResults(wantSets))
	if gotStats != wantStats {
		t.Errorf("approx stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}

	open := func() *rank.Cursor {
		c, err := rank.NewApproxCursor(context.Background(), db, amin, 0.6, rank.FMax{}, opts)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantRanked, wantRankedStats := rankedPrefix(open(), -1, 0)
	qr := fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax",
		Options: fd.QueryOptions{UseIndex: true}}
	gotRanked, gotRankedStats := openDrain(t, db, qr)
	sameSequence(t, "approx-ranked", gotRanked, wantRanked)
	if gotRankedStats != wantRankedStats {
		t.Errorf("approx-ranked stats differ:\n open   %+v\n engine %+v", gotRankedStats, wantRankedStats)
	}

	top, _ := rankedPrefix(open(), 3, 0)
	qk := qr
	qk.K = 3
	gotTop, _ := openDrain(t, db, qk)
	sameSequence(t, "approx-ranked/K", gotTop, top)

	if len(wantRanked) > 1 {
		tau := wantRanked[len(wantRanked)/2].Rank
		thr, _ := rankedPrefix(open(), -1, tau)
		qt := qr
		qt.RankTau = tau
		gotThr, _ := openDrain(t, db, qt)
		sameSequence(t, "approx-ranked/RankTau", gotThr, thr)
	}
}

// rankedPrefix pulls c until k results (k < 0: no bound) or the first
// rank below tau, the way a K- or RankTau-bounded query stops, and
// returns the results with the cursor's stats at that point.
func rankedPrefix(c *rank.Cursor, k int, tau float64) ([]fd.Result, fd.Stats) {
	defer c.Close()
	var out []fd.Result
	for k != 0 {
		r, ok := c.Next()
		if !ok || (tau > 0 && r.Rank < tau) {
			break
		}
		out = append(out, fd.Result{Set: r.Set, Rank: r.Rank, Ranked: true})
		k--
	}
	return out, c.Stats()
}

// unrankedResults lifts an unranked engine sequence to Results.
func unrankedResults(sets []*fd.TupleSet) []fd.Result {
	out := make([]fd.Result, len(sets))
	for i, s := range sets {
		out[i] = fd.Result{Set: s}
	}
	return out
}
