package fd_test

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
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
// and emission sequence are pinned to literal values. The counters and
// the order are deterministic on the sequential paths, so any drift
// means the engine did different work or emitted in another order.
type pinnedCase struct {
	name  string
	db    func(*testing.T) *fd.Database
	q     fd.Query
	stats fd.Stats
	// seq is seqDigest of the drained result sequence.
	seq string
}

// seqDigest is the FNV-64a hex digest of a result sequence: every
// result's canonical key in emission order, with its rank for the
// ranked modes.
func seqDigest(rs []fd.Result) string {
	h := fnv.New64a()
	for _, r := range rs {
		h.Write([]byte(r.Set.Key()))
		if r.Ranked {
			h.Write([]byte("|" + strconv.FormatFloat(r.Rank, 'g', -1, 64)))
		}
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// pinnedIdx is the zero options at Workers 1: it pins that a query
// naming no options runs the indexed engine.
var pinnedIdx = fd.QueryOptions{Workers: 1}

var pinnedCases = []pinnedCase{
	{"exact/singletons", equivDB, fd.Query{Options: pinnedIdx},
		fd.Stats{Iterations: 155, Emitted: 103, JCCChecks: 2469, TuplesScanned: 1879, ListScans: 3310, PageReads: 1879, IndexProbes: 847, TuplesSkipped: 8297, SigHits: 1203, SigRebuilds: 409, MaxResident: 100},
		"a40a9225aef369ea"},
	{"approx", dirtyDB, fd.Query{Mode: fd.ModeApprox, Tau: 0.7, Options: pinnedIdx},
		fd.Stats{Iterations: 25, Emitted: 12, JCCChecks: 128, TuplesScanned: 140, ListScans: 101, PageReads: 140, IndexProbes: 78, TuplesSkipped: 1068, SigHits: 0, SigRebuilds: 0, MaxResident: 12},
		"30eadebf5d852777"},
	{"approx/exact-sim", equivDB, fd.Query{Mode: fd.ModeApprox, Tau: 1, Sim: "exact", Options: pinnedIdx},
		fd.Stats{Iterations: 155, Emitted: 103, JCCChecks: 1583, TuplesScanned: 1879, ListScans: 3683, PageReads: 1879, IndexProbes: 847, TuplesSkipped: 8297, SigHits: 0, SigRebuilds: 0, MaxResident: 100},
		"ed7911e3c4c534de"},
	{"ranked/fmax", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax"},
		fd.Stats{Iterations: 120, Emitted: 103, JCCChecks: 2821, TuplesScanned: 1767, ListScans: 4155, PageReads: 1767, IndexProbes: 770, TuplesSkipped: 7769, SigHits: 1590, SigRebuilds: 351, MaxResident: 0},
		"179b499910ef2397"},
	{"ranked/pairsum", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "pairsum", Options: pinnedIdx},
		fd.Stats{Iterations: 213, Emitted: 103, JCCChecks: 16335, TuplesScanned: 3079, ListScans: 8970, PageReads: 3079, IndexProbes: 1335, TuplesSkipped: 12921, SigHits: 14171, SigRebuilds: 618, MaxResident: 0},
		"16a420514a9b42f3"},
	{"approx-ranked/fmax", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", Options: pinnedIdx},
		fd.Stats{Iterations: 44, Emitted: 32, JCCChecks: 383, TuplesScanned: 472, ListScans: 723, PageReads: 472, IndexProbes: 197, TuplesSkipped: 2192, SigHits: 0, SigRebuilds: 0, MaxResident: 0},
		"6a839178564a83a3"},
	{"approx-ranked/pairsum", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "pairsum", Options: pinnedIdx},
		fd.Stats{Iterations: 69, Emitted: 32, JCCChecks: 647, TuplesScanned: 694, ListScans: 1109, PageReads: 694, IndexProbes: 285, TuplesSkipped: 3026, SigHits: 0, SigRebuilds: 0, MaxResident: 0},
		"64841d6ec4f8499f"},
	{"exact/K", equivDB, fd.Query{K: 5, Options: pinnedIdx},
		fd.Stats{Iterations: 5, Emitted: 5, JCCChecks: 170, TuplesScanned: 86, ListScans: 124, PageReads: 86, IndexProbes: 35, TuplesSkipped: 394, SigHits: 109, SigRebuilds: 39, MaxResident: 34},
		"141bfaa2ccf7de5a"},
	{"ranked/K", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 4},
		fd.Stats{Iterations: 4, Emitted: 4, JCCChecks: 196, TuplesScanned: 59, ListScans: 68, PageReads: 59, IndexProbes: 28, TuplesSkipped: 325, SigHits: 157, SigRebuilds: 24, MaxResident: 0},
		"4a50e40a440a8963"},
	{"ranked/RankTau", equivDB, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: 9},
		fd.Stats{Iterations: 60, Emitted: 59, JCCChecks: 1939, TuplesScanned: 887, ListScans: 2157, PageReads: 887, IndexProbes: 380, TuplesSkipped: 3497, SigHits: 1312, SigRebuilds: 264, MaxResident: 0},
		"d6b1bee6bbba17a0"},
	{"approx-ranked/K", dirtyDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", K: 3, Options: pinnedIdx},
		fd.Stats{Iterations: 3, Emitted: 3, JCCChecks: 15, TuplesScanned: 21, ListScans: 4, PageReads: 21, IndexProbes: 12, TuplesSkipped: 171, SigHits: 0, SigRebuilds: 0, MaxResident: 0},
		"9fd74bcaac48f6a3"},
	{"approx-ranked/RankTau", equivDB, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax", RankTau: 9, Options: pinnedIdx},
		fd.Stats{Iterations: 60, Emitted: 59, JCCChecks: 806, TuplesScanned: 887, ListScans: 2157, PageReads: 887, IndexProbes: 380, TuplesSkipped: 3497, SigHits: 0, SigRebuilds: 0, MaxResident: 0},
		"d6b1bee6bbba17a0"},
}

// TestOpenPinnedStats pins the engine work of every mode: the full
// Stats of a Workers-1 drain for exact, approx, ranked and
// approx-ranked queries, and for K- and RankTau-bounded ones. A bounded drain must also be exactly the matching prefix of
// its unbounded drain, ranks included.
func TestOpenPinnedStats(t *testing.T) {
	for _, c := range pinnedCases {
		t.Run(c.name, func(t *testing.T) {
			db := c.db(t)
			got, stats := openDrain(t, db, c.q)
			if stats != c.stats {
				t.Errorf("stats drifted:\n got  %#v\n want %#v", stats, c.stats)
			}
			if seq := seqDigest(got); seq != c.seq {
				t.Errorf("emission sequence drifted: digest %s, want %s", seq, c.seq)
			}
			// Result.Ranked marks exactly the ranked modes, on the
			// sequential path and on the parallel one (Workers 2).
			ranked := c.q.Mode == fd.ModeRanked || c.q.Mode == fd.ModeApproxRanked
			par := c.q
			par.Options.Workers = 2
			parGot, _ := openDrain(t, db, par)
			for _, r := range slices.Concat(got, parGot) {
				if r.Ranked != ranked {
					t.Fatalf("result %s: Ranked = %v, want %v", r.Set.Key(), r.Ranked, ranked)
				}
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

// indexed is the one engine configuration fd.Open runs, spelled as
// core.Options for the engine cursors the tests compare it with.
var indexed = core.Options{UseIndex: true, UseJoinIndex: true}

// qualify is approx.Qualify for a join and threshold the test knows
// valid.
func qualify(t testing.TB, a approx.Join, tau float64) core.Predicate {
	t.Helper()
	p, err := approx.Qualify(a, tau)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestOpenEquivalentToExactWrappers proves fd.Open coincides with the
// exact engine entry points the removed FullDisjunction and Stream
// wrappers delegated to, under the indexed configuration: the full
// drain, stats included, and the K-bounded prefix. The §7
// initialisation strategies are engine options only; internal/core
// pins them (TestEnginePinnedStats).
func TestOpenEquivalentToExactWrappers(t *testing.T) {
	db := equivDB(t)
	open := func() fd.Results {
		c, err := core.NewCursor(context.Background(), db, core.JCC, indexed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	// Workers pinned to 1: the engine cursor is sequential, and on a
	// multicore box Workers 0 would resolve to a parallel cursor whose
	// arrival order is not the canonical sequence.
	want, wantStats := prefix(open(), -1, 0)
	got, gotStats := openDrain(t, db, exactQuery(fd.QueryOptions{}))
	sameSequence(t, "exact", got, want)
	if gotStats != wantStats {
		t.Errorf("exact stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}

	// K-bounded prefix ≡ the engine cursor stopped after K results.
	top, topStats := prefix(open(), 5, 0)
	qk := exactQuery(fd.QueryOptions{})
	qk.K = 5
	got, gotStats = openDrain(t, db, qk)
	sameSequence(t, "exact/K", got, top)
	if gotStats != topStats {
		t.Errorf("exact/K stats differ:\n open   %+v\n engine %+v", gotStats, topStats)
	}
}

// TestOpenEquivalentToRankedWrappers proves fd.Open coincides with the
// ranked engine cursor the removed StreamRanked, TopK and Threshold
// wrappers delegated to, ranks and stats included.
func TestOpenEquivalentToRankedWrappers(t *testing.T) {
	db := equivDB(t)
	open := func() fd.Results {
		c, err := rank.NewCursor(context.Background(), db, core.JCC, rank.FMax{}, indexed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}

	want, wantStats := prefix(open(), -1, 0)
	got, gotStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax"})
	sameSequence(t, "ranked", got, want)
	if gotStats != wantStats {
		t.Errorf("ranked stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}

	top, topStats := prefix(open(), 4, 0)
	gotTop, gotTopStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 4})
	sameSequence(t, "ranked/K", gotTop, top)
	if gotTopStats != topStats {
		t.Errorf("top-k stats differ:\n open   %+v\n engine %+v", gotTopStats, topStats)
	}

	tau := want[len(want)/2].Rank
	thr, thrStats := prefix(open(), -1, tau)
	gotThr, gotThrStats := openDrain(t, db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: tau})
	sameSequence(t, "ranked/RankTau", gotThr, thr)
	if gotThrStats != thrStats {
		t.Errorf("threshold stats differ:\n open   %+v\n engine %+v", gotThrStats, thrStats)
	}
}

// TestOpenEquivalentToApproxWrappers proves fd.Open coincides with the
// approximate engine cursors the removed ApproxStream,
// ApproxStreamRanked, ApproxTopK and ApproxThreshold wrappers
// delegated to, under the indexed configuration.
func TestOpenEquivalentToApproxWrappers(t *testing.T) {
	db := dirtyDB(t)
	amin := &approx.Amin{S: approx.LevenshteinSim{}}

	c, err := core.NewCursor(context.Background(), db, qualify(t, amin, 0.7), indexed)
	if err != nil {
		t.Fatal(err)
	}
	want, wantStats := prefix(c, -1, 0)
	// Workers pinned to 1 so the arrival order matches the sequential
	// engine cursor on any GOMAXPROCS.
	q := fd.Query{Mode: fd.ModeApprox, Tau: 0.7, Options: fd.QueryOptions{Workers: 1}}
	got, gotStats := openDrain(t, db, q)
	sameSequence(t, "approx", got, want)
	if gotStats != wantStats {
		t.Errorf("approx stats differ:\n open   %+v\n engine %+v", gotStats, wantStats)
	}

	open := func() fd.Results {
		c, err := rank.NewCursor(context.Background(), db, qualify(t, amin, 0.6), rank.FMax{}, indexed)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	wantRanked, wantRankedStats := prefix(open(), -1, 0)
	qr := fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.6, Rank: "fmax"}
	gotRanked, gotRankedStats := openDrain(t, db, qr)
	sameSequence(t, "approx-ranked", gotRanked, wantRanked)
	if gotRankedStats != wantRankedStats {
		t.Errorf("approx-ranked stats differ:\n open   %+v\n engine %+v", gotRankedStats, wantRankedStats)
	}

	top, _ := prefix(open(), 3, 0)
	qk := qr
	qk.K = 3
	gotTop, _ := openDrain(t, db, qk)
	sameSequence(t, "approx-ranked/K", gotTop, top)

	if len(wantRanked) > 1 {
		tau := wantRanked[len(wantRanked)/2].Rank
		thr, _ := prefix(open(), -1, tau)
		qt := qr
		qt.RankTau = tau
		gotThr, _ := openDrain(t, db, qt)
		sameSequence(t, "approx-ranked/RankTau", gotThr, thr)
	}
}

// prefix pulls c until k results (k < 0: no bound) or the first rank
// below tau, the way a K- or RankTau-bounded query stops, and returns
// the results with the cursor's stats at that point.
func prefix(c fd.Results, k int, tau float64) ([]fd.Result, fd.Stats) {
	defer c.Close()
	var out []fd.Result
	for k != 0 {
		r, ok := c.Next()
		if !ok || (tau > 0 && r.Rank < tau) {
			break
		}
		out = append(out, r)
		k--
	}
	return out, c.Stats()
}

// TestOpenRankOverflow: PairSum adds importances without a bound, so
// two joined tuples of #imp 1e308 rank +Inf. The ranked open fails with
// a RankError naming the set, instead of serving a rank no order or
// page can carry.
func TestOpenRankOverflow(t *testing.T) {
	var rels []*fd.Relation
	for _, label := range []string{"a1", "b1"} {
		rel, err := fd.ReadCSV("R"+label, strings.NewReader("#label,#imp,A\n"+label+",1e308,x\n"))
		if err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	db, err := fd.NewDatabase(rels...)
	if err != nil {
		t.Fatal(err)
	}
	_, err = fd.Open(context.Background(), db, fd.Query{Mode: fd.ModeRanked, Rank: "pairsum", K: 3})
	var re *fd.RankError
	if !errors.As(err, &re) || re.Set != "{a1, b1}" || !math.IsInf(re.Rank, 1) {
		t.Fatalf("Open: %v, want a RankError naming {a1, b1} at +Inf", err)
	}
}
