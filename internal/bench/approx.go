package bench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// approxShape is one cold-drain dirty-chain shape of E13: the shape
// and generator settings perfbench's "dirty" kind uses.
type approxShape struct {
	name           string
	tuples, domain int
	imp            bool
}

func (s approxShape) build(seed int64) (*relation.Database, error) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 4, TuplesPerRelation: s.tuples, Domain: s.domain, NullRate: 0.1, Seed: seed},
		ErrorRate: 0.2, MaxEdits: 2, MinProb: 0.4})
	if err != nil || !s.imp {
		return db, err
	}
	// Importances uniform in [1, 5], as perfbench draws them, so the
	// ranking function has something to order by.
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	for _, rel := range db.Relations() {
		for j := 0; j < rel.Len(); j++ {
			rel.MutateTuple(j, func(t *relation.Tuple) { t.Imp = 1 + 4*rng.Float64() })
		}
	}
	return db, nil
}

// approxRung is one query of E13, run once with the sweep and once
// with the join index: Amin over the Levenshtein similarity at tau,
// ranked by rank (nil: unranked) and stopped after k results (0: all).
type approxRung struct {
	name  string
	shape approxShape
	tau   float64
	rank  rank.Func
	k     int
}

// approxRungs are the approx and approx-ranked families of perfbench's
// cold-drain workload at its shapes: Amin/Levenshtein at τ 0.8 (the
// served threshold) and 0.6 on the 4×40 dirty chain, and the ranked
// top-10 under fmax on the 4×300 one.
func approxRungs() []approxRung {
	small := approxShape{name: "4×40 dirty chain", tuples: 40, domain: 5}
	large := approxShape{name: "4×300 dirty chain", tuples: 300, domain: 12, imp: true}
	return []approxRung{
		{"approx τ 0.8", small, 0.8, nil, 0},
		{"approx τ 0.6", small, 0.6, nil, 0},
		{"approx-ranked fmax top-10 τ 0.8", large, 0.8, rank.FMax{}, 10},
	}
}

// approxRun is one measured drain of an E13 rung.
type approxRun struct {
	keys      []string
	ranks     []float64
	stats     fd.Stats
	delayWork int64
}

// drain runs the rung's engine cursor under opts on the sequential
// path, stopping after k results as a K-bounded query does, and tracks
// the work-unit delay as drainPhased does.
func (r approxRung) drain(db *relation.Database, opts core.Options) (approxRun, error) {
	var (
		run approxRun
		c   interface {
			Stats() core.Stats
			Err() error
			Close()
		}
		next func() (*tupleset.Set, float64, bool)
	)
	a := &approx.Amin{S: approx.LevenshteinSim{}}
	if r.rank == nil {
		ac, err := approx.NewCursor(context.Background(), db, a, r.tau, opts)
		if err != nil {
			return run, err
		}
		c, next = ac, func() (*tupleset.Set, float64, bool) { s, ok := ac.Next(); return s, 0, ok }
	} else {
		rc, err := rank.NewApproxCursor(context.Background(), db, a, r.tau, r.rank, opts)
		if err != nil {
			return run, err
		}
		c, next = rc, func() (*tupleset.Set, float64, bool) { res, ok := rc.Next(); return res.Set, res.Rank, ok }
	}
	defer c.Close()
	prevWork := workUnits(c.Stats())
	for r.k == 0 || len(run.keys) < r.k {
		s, rk, ok := next()
		if !ok {
			break
		}
		w := workUnits(c.Stats())
		run.delayWork = max(run.delayWork, w-prevWork)
		prevWork = w
		run.keys = append(run.keys, s.Key())
		if r.rank != nil {
			run.ranks = append(run.ranks, rk)
		}
	}
	run.stats = c.Stats()
	return run, c.Err()
}

// E13Both is the counter gate of the approximate families: every rung
// of approxRungs runs at Workers 1 with the full sweep and with the
// join index (the τ-live, τ-similar candidates), and the two must
// deliver the same results — the same multiset, and for a ranked rung
// the same rank sequence. The record carries each run's counters and
// work-unit delay.
func E13Both() (*Table, *Record, error) {
	rec := &Record{
		Workload:   "approx",
		Title:      "Approximate joins: sweep vs join index (cold-drain dirty-chain shapes)",
		Go:         runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	t := &Table{
		ID:     "E13",
		Title:  rec.Title,
		Header: []string{"variant", "ms", "JCC checks", "tuples scanned", "tuples skipped", "list scans", "delay work max", "results"},
		Notes: []string{"Amin over the Levenshtein similarity, Workers 1, seed 1. The join index visits only " +
			"tuples whose probability reaches τ, among the postings of the join values τ-similar to a member's; " +
			"the sweep visits every tuple of every relation. Both deliver the same results."},
	}
	for _, r := range approxRungs() {
		db, err := r.shape.build(1)
		if err != nil {
			return nil, nil, err
		}
		var sweep approxRun
		for _, joinIndex := range []bool{false, true} {
			opts := core.Options{UseIndex: true, UseJoinIndex: joinIndex}
			name := fmt.Sprintf("%s, %s: sweep", r.name, r.shape.name)
			if joinIndex {
				name = fmt.Sprintf("%s, %s: join index", r.name, r.shape.name)
			}
			var run approxRun
			d, mallocs, bytes := measure(func() { run, err = r.drain(db, opts) })
			if err != nil {
				return nil, nil, fmt.Errorf("E13 %s: %w", name, err)
			}
			if !joinIndex {
				sweep = run
			} else if !sameResults(run, sweep) {
				return nil, nil, fmt.Errorf("E13 %s: the join index changed the output (%d vs %d results)",
					name, len(run.keys), len(sweep.keys))
			}
			s := run.stats
			rec.Variants = append(rec.Variants, Metric{
				Name: name, WallMillis: float64(d.Microseconds()) / 1000, Results: len(run.keys), Workers: 1,
				JCCChecks: s.JCCChecks, SigHits: s.SigHits, SigRebuilds: s.SigRebuilds,
				TuplesScanned: s.TuplesScanned, TuplesSkipped: s.TuplesSkipped, IndexProbes: s.IndexProbes,
				ListScans: s.ListScans, PageReads: s.PageReads, Mallocs: mallocs, BytesAlloc: bytes,
				DelayWorkMax: run.delayWork,
			})
			t.Rows = append(t.Rows, []string{name, msec(d), fmt.Sprint(s.JCCChecks), fmt.Sprint(s.TuplesScanned),
				fmt.Sprint(s.TuplesSkipped), fmt.Sprint(s.ListScans), fmt.Sprint(run.delayWork), fmt.Sprint(len(run.keys))})
		}
	}
	return t, rec, nil
}

// E13ApproxIndex renders E13's table alone.
func E13ApproxIndex() (*Table, error) {
	t, _, err := E13Both()
	return t, err
}

// sameResults reports whether two drains delivered the same result
// multiset and the same rank sequence.
func sameResults(a, b approxRun) bool {
	ka, kb := slices.Clone(a.keys), slices.Clone(b.keys)
	slices.Sort(ka)
	slices.Sort(kb)
	return slices.Equal(ka, kb) && slices.Equal(a.ranks, b.ranks)
}
