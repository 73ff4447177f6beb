package bench

import (
	"context"
	"fmt"

	fd "repro"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/join"
	"repro/internal/storage"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// E8ApproxSweep sweeps the threshold τ of the approximate full
// disjunction on a dirty chain workload, for Amin (efficiently
// computable) and Aprod (generic fallback).
func E8ApproxSweep() (*Table, error) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 4, TuplesPerRelation: 12, Domain: 4, Seed: 19},
		ErrorRate: 0.35, MaxEdits: 2, MinProb: 0.4,
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:    "E8",
		Title: "Approximate full disjunction vs threshold τ (dirty chain, Levenshtein sim)",
		Header: []string{"τ", "Amin |AFD|", "Amin ms", "Amin multi-tuple results",
			"Aprod |AFD|", "Aprod ms"},
	}
	for _, tau := range []float64{0.95, 0.9, 0.8, 0.7, 0.6, 0.5} {
		var aminSets []fd.Result
		aminTime := timeIt(func() {
			aminSets, _, err = runQuery(db, fd.Query{Mode: fd.ModeApprox, Tau: tau})
		})
		if err != nil {
			return nil, err
		}
		multi := 0
		for _, r := range aminSets {
			if r.Set.Len() > 1 {
				multi++
			}
		}
		aprod, err := approx.Qualify(&approx.Aprod{S: approx.LevenshteinSim{}}, tau)
		if err != nil {
			return nil, err
		}
		var aprodSets []*tupleset.Set
		aprodTime := timeIt(func() {
			aprodSets, _, err = core.FullDisjunction(db, aprod, core.Options{UseIndex: true})
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.2f", tau),
			fmt.Sprintf("%d", len(aminSets)),
			msec(aminTime),
			fmt.Sprintf("%d", multi),
			fmt.Sprintf("%d", len(aprodSets)),
			msec(aprodTime),
		})
	}
	t.Notes = append(t.Notes,
		"Expected shape (§6): lowering τ admits more approximate matches, so multi-tuple results "+
			"grow as τ falls (misspelled joins are recovered) and the result count reflects the "+
			"merge/coverage balance. Runtime stays polynomial for Amin at every τ (Thm 6.6).")
	return t, nil
}

// E9Ablations measures the §7 engineering choices: the hash index, the
// three Incomplete initialisation strategies, and block-based
// execution. One run renders the markdown table (ladder plus
// buffer-pool sweep) and the ladder's trajectory record (wall-clock,
// counters, allocation deltas).
func E9Ablations() (*Table, *Record, error) {
	db, err := e9DB()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecord("e9", "Section 7 ablations (chain workload)")
	t := &Table{
		ID:     "E9",
		Title:  rec.Title,
		Header: []string{"variant", "ms", "JCC checks", "sig hits", "tuples scanned", "tuples skipped", "list scans", "page reads", "|FD|"},
	}
	var baseline int
	for i, v := range e9Variants() {
		open := func() (fd.Results, error) {
			if v.workers > 1 {
				return core.NewParallelCursor(context.Background(), db, core.JCC, v.opts, v.workers)
			}
			return core.NewCursor(context.Background(), db, core.JCC, v.opts)
		}
		var run drained
		d, mallocs, bytes := measure(func() {
			run, err = drain(db, open, 0, v.workers <= 1)
		})
		if err != nil {
			return nil, nil, err
		}
		sets, stats := run.sets, run.stats
		if i == 0 {
			baseline = len(sets)
		} else if len(sets) != baseline {
			return nil, nil, fmt.Errorf("E9: variant %q changed the output: %d vs %d", v.name, len(sets), baseline)
		}
		rec.Variants = append(rec.Variants, run.metric(v.name, d, mallocs, bytes, max(v.workers, 1)))
		t.Rows = append(t.Rows, []string{
			v.name,
			msec(d),
			fmt.Sprintf("%d", stats.JCCChecks),
			fmt.Sprintf("%d", stats.SigHits),
			fmt.Sprintf("%d", stats.TuplesScanned),
			fmt.Sprintf("%d", stats.TuplesSkipped),
			fmt.Sprintf("%d", stats.ListScans),
			fmt.Sprintf("%d", stats.PageReads),
			fmt.Sprintf("%d", len(sets)),
		})
	}
	// Buffer-pool sweep: page reads (= misses) vs pool capacity, on top
	// of the fastest variant.
	const block = 8
	totalPages := 0
	for i := 0; i < db.NumRelations(); i++ {
		totalPages += (db.Relation(i).Len() + block - 1) / block
	}
	for _, capacity := range []int{1, totalPages / 2, totalPages} {
		pool := storage.NewBufferPool(capacity)
		opts := core.Options{UseIndex: true, UseJoinIndex: true, Strategy: core.InitSeeded, BlockSize: block, Pool: pool}
		var stats core.Stats
		d := timeIt(func() {
			_, stats, err = core.FullDisjunction(db, core.JCC, opts)
		})
		if err != nil {
			return nil, nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("+ buffer pool of %d/%d pages (hit rate %.0f%%)",
				capacity, totalPages, 100*pool.HitRate()),
			msec(d),
			fmt.Sprintf("%d", stats.JCCChecks),
			fmt.Sprintf("%d", stats.SigHits),
			fmt.Sprintf("%d", stats.TuplesScanned),
			fmt.Sprintf("%d", stats.TuplesSkipped),
			fmt.Sprintf("%d", stats.ListScans),
			fmt.Sprintf("%d", stats.PageReads),
			fmt.Sprintf("%d", baseline),
		})
	}
	t.Notes = append(t.Notes,
		"Expected shape (§7): the hash index collapses the list-scan column; the dictionary-code "+
			"join-candidate index replaces full sweeps by equi-match candidates (tuples skipped ≫ "+
			"tuples scanned) and cuts JCC checks accordingly; the seeded/projected initialisations "+
			"cut repeated work across per-relation passes; larger blocks divide the simulated page "+
			"reads, and a buffer pool sized to the database turns repeated scans into hits (page "+
			"reads = cold misses only). The output is identical for every variant.")
	return t, rec, nil
}

// E10Outerjoin compares the Rajaraman–Ullman outerjoin sequence [2]
// against INCREMENTALFD on γ-acyclic chain workloads — the only
// terrain where [2] applies at all.
func E10Outerjoin() (*Table, error) {
	t := &Table{
		ID:    "E10",
		Title: "γ-acyclic chains — outerjoin sequence [2] vs IncrementalFD",
		Header: []string{"tuples/rel", "|FD| (padded)", "outerjoin ms", "incremental ms",
			"outputs equal"},
	}
	for _, m := range []int{8, 16, 24, 32} {
		db, err := workload.Chain(workload.Config{
			Relations: 4, TuplesPerRelation: m, Domain: 4, NullRate: 0.1, Seed: 29})
		if err != nil {
			return nil, err
		}
		var padded *join.PaddedRelation
		ojTime := timeIt(func() {
			padded, err = join.FullDisjunction(db)
		})
		if err != nil {
			return nil, err
		}
		var sets []*tupleset.Set
		incTime := timeIt(func() {
			sets, _, err = core.FullDisjunction(db, core.JCC, core.Options{UseIndex: true})
		})
		if err != nil {
			return nil, err
		}
		u := tupleset.NewUniverse(db)
		attrs := u.AllAttributes()
		coreKeys := map[string]bool{}
		for _, s := range sets {
			coreKeys[u.PadOver(s, attrs).Key()] = true
		}
		equal := len(coreKeys) == len(padded.Keys())
		if equal {
			for _, k := range padded.Keys() {
				if !coreKeys[k] {
					equal = false
					break
				}
			}
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", m),
			fmt.Sprintf("%d", len(padded.Keys())),
			msec(ojTime),
			msec(incTime),
			fmt.Sprintf("%v", equal),
		})
	}
	t.Notes = append(t.Notes,
		"Expected shape (§1, [2]): the outerjoin sequence is competitive on small γ-acyclic inputs "+
			"but materialises every intermediate result (no incrementality) and is inapplicable to "+
			"cyclic schemas such as the tourist triangle, where IncrementalFD still runs.")
	return t, nil
}

// E11Threshold sweeps the (τ,f)-threshold variant of Remark 5.6.
func E11Threshold() (*Table, error) {
	db, err := workload.Star(workload.Config{
		Relations: 5, TuplesPerRelation: 16, Domain: 4, NullRate: 0.05, ImpMax: 100, Seed: 37})
	if err != nil {
		return nil, err
	}
	full, _, err := core.FullDisjunction(db, core.JCC, core.Options{UseIndex: true})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "E11",
		Title:  "Threshold full disjunction (Remark 5.6) — results with fmax ≥ τ",
		Header: []string{"τ", "results", "fraction of |FD|", "ms"},
	}
	for _, tau := range []float64{95, 90, 75, 50, 25, 1} {
		var got []fd.Result
		d := timeIt(func() {
			got, _, err = runQuery(db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", RankTau: tau})
		})
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.0f", tau),
			fmt.Sprintf("%d", len(got)),
			fmt.Sprintf("%.0f%%", 100*float64(len(got))/float64(len(full))),
			msec(d),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"|FD| = %d. Expected shape: higher thresholds return fewer results in less time; the "+
			"enumeration stops at the first below-threshold answer thanks to the ranking order "+
			"guarantee (Lemma 5.4).", len(full)))
	return t, nil
}
