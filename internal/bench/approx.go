package bench

import (
	"context"
	"fmt"
	"math/rand"
	"slices"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/relation"
	"repro/internal/workload"
)

// coldShape is one cold-drain database shape of the counter-gated
// family rungs (E13, and E6's ranked rungs): the shape and generator
// settings perfbench's "dirty" and "chain" kinds use.
type coldShape struct {
	name           string
	tuples, domain int
	imp            bool
	// clean builds a chain without misspellings or probabilities (the
	// "chain" kind) instead of the dirty chain.
	clean bool
}

func (s coldShape) build(seed int64) (*relation.Database, error) {
	cfg := workload.Config{Relations: 4, TuplesPerRelation: s.tuples, Domain: s.domain, NullRate: 0.1, Seed: seed}
	var db *relation.Database
	var err error
	if s.clean {
		db, err = workload.Chain(cfg)
	} else {
		db, err = workload.DirtyChain(workload.DirtyConfig{Config: cfg, ErrorRate: 0.2, MaxEdits: 2, MinProb: 0.4})
	}
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

// familyRung is one counter-gated query: Amin over the Levenshtein
// similarity at tau (0: the exact join), ranked by rank (nil:
// unranked) and stopped after k results (0: all). E13 runs each of
// its rungs once with the sweep and once with the join index.
type familyRung struct {
	name  string
	shape coldShape
	tau   float64
	rank  rank.Func
	k     int
}

// approxRungs are the approx and approx-ranked families of perfbench's
// cold-drain workload at its shapes: Amin/Levenshtein at τ 0.8 (the
// served threshold) and 0.6 on the 4×40 dirty chain, and the ranked
// top-10 under fmax on the 4×300 one.
func approxRungs() []familyRung {
	small := coldShape{name: "4×40 dirty chain", tuples: 40, domain: 5}
	large := coldShape{name: "4×300 dirty chain", tuples: 300, domain: 12, imp: true}
	return []familyRung{
		{"approx τ 0.8", small, 0.8, nil, 0},
		{"approx τ 0.6", small, 0.6, nil, 0},
		{"approx-ranked fmax top-10 τ 0.8", large, 0.8, rank.FMax{}, 10},
	}
}

// rankedRungs are the ranked family of perfbench's cold-drain workload
// at its shape: the top-10 under fmax and under pairsum on the 4×200
// chain.
func rankedRungs() []familyRung {
	chain := coldShape{name: "4×200 chain", tuples: 200, domain: 25, imp: true, clean: true}
	return []familyRung{
		{"ranked fmax top-10", chain, 0, rank.FMax{}, 10},
		{"ranked pairsum top-10", chain, 0, rank.PairSum(), 10},
	}
}

// open returns the opener of the rung's engine cursor over db under
// opts, for drain.
func (r familyRung) open(db *relation.Database, opts core.Options) func() (fd.Results, error) {
	return func() (fd.Results, error) {
		p := core.JCC
		if r.tau > 0 {
			var err error
			if p, err = approx.Qualify(&approx.Amin{S: approx.LevenshteinSim{}}, r.tau); err != nil {
				return nil, err
			}
		}
		if r.rank == nil {
			return core.NewCursor(context.Background(), db, p, opts)
		}
		return rank.NewCursor(context.Background(), db, p, r.rank, opts)
	}
}

// E13ApproxIndex is the counter gate of the approximate families: every rung
// of approxRungs runs at Workers 1 with the full sweep and with the
// join index (the τ-live, τ-similar candidates), and the two must
// deliver the same results — the same multiset, and for a ranked rung
// the same rank sequence. The record carries each run's counters and
// work-unit delay.
func E13ApproxIndex() (*Table, *Record, error) {
	rec := newRecord("approx", "Approximate joins: sweep vs join index (cold-drain dirty-chain shapes)")
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
		var sweep drained
		for _, joinIndex := range []bool{false, true} {
			opts := core.Options{UseIndex: true, UseJoinIndex: joinIndex}
			name := fmt.Sprintf("%s, %s: sweep", r.name, r.shape.name)
			if joinIndex {
				name = fmt.Sprintf("%s, %s: join index", r.name, r.shape.name)
			}
			var run drained
			d, mallocs, bytes := measure(func() { run, err = drain(db, r.open(db, opts), r.k, true) })
			if err != nil {
				return nil, nil, fmt.Errorf("E13 %s: %w", name, err)
			}
			if !joinIndex {
				sweep = run
			} else if !sameResults(run, sweep) {
				return nil, nil, fmt.Errorf("E13 %s: the join index changed the output (%d vs %d results)",
					name, len(run.sets), len(sweep.sets))
			}
			s := run.stats
			rec.Variants = append(rec.Variants, run.metric(name, d, mallocs, bytes, 1))
			t.Rows = append(t.Rows, []string{name, msec(d), fmt.Sprint(s.JCCChecks), fmt.Sprint(s.TuplesScanned),
				fmt.Sprint(s.TuplesSkipped), fmt.Sprint(s.ListScans), fmt.Sprint(run.delayWork), fmt.Sprint(len(run.sets))})
		}
	}
	return t, rec, nil
}

// E6TopK runs E6's table (e6Table) and the counter gate of the ranked
// family: each rung of rankedRungs drains at Workers 1 under fd.Open's
// engine configuration (both indexes), and the record carries its
// counters and work-unit delay. The rungs are noted under E6's table.
func E6TopK() (*Table, *Record, error) {
	t, err := e6Table()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecord("ranked", "Ranked top-10 (cold-drain chain shape)")
	for _, r := range rankedRungs() {
		db, err := r.shape.build(1)
		if err != nil {
			return nil, nil, err
		}
		name := fmt.Sprintf("%s, %s", r.name, r.shape.name)
		var run drained
		d, mallocs, bytes := measure(func() { run, err = drain(db, r.open(db, core.Serving()), r.k, true) })
		if err != nil {
			return nil, nil, fmt.Errorf("E6 %s: %w", name, err)
		}
		rec.Variants = append(rec.Variants, run.metric(name, d, mallocs, bytes, 1))
		t.Notes = append(t.Notes, fmt.Sprintf("%s (Workers 1, seed 1): %s ms, %d JCC checks, %d list scans, "+
			"delay work max %d, %d results.", name, msec(d), run.stats.JCCChecks, run.stats.ListScans,
			run.delayWork, len(run.sets)))
	}
	return t, rec, nil
}

// sameResults reports whether two drains delivered the same result
// multiset and the same rank sequence.
func sameResults(a, b drained) bool {
	return slices.Equal(sortedSetKeys(a.sets), sortedSetKeys(b.sets)) && slices.Equal(a.ranks, b.ranks)
}
