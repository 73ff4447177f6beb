package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// appendBatchSpec is one rung of the E12 append sequence: relation rel
// of the E9 database gains the tuples.
type appendBatchSpec struct {
	rel    int
	tuples []relation.Tuple
}

// e12Batches plans the append sequence: eight batches of four tuples,
// rotating over the relations, drawn from a donor chain database of
// the same shape but a different seed (so the appended values join the
// existing chain the way organic growth would).
func e12Batches() ([]appendBatchSpec, error) {
	donor, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 28, Domain: 4, NullRate: 0.1, Seed: 24})
	if err != nil {
		return nil, err
	}
	used := make([]int, donor.NumRelations())
	batches := make([]appendBatchSpec, 0, 8)
	for i := 0; i < 8; i++ {
		rel := i % donor.NumRelations()
		b := appendBatchSpec{rel: rel}
		for j := 0; j < 4; j++ {
			b.tuples = append(b.tuples, *donor.Relation(rel).Tuple(used[rel]))
			used[rel]++
		}
		batches = append(batches, b)
	}
	return batches, nil
}

// rebuildWith is the pre-incremental maintenance path: copy every
// relation tuple by tuple, append the batch, and index the result from
// scratch.
func rebuildWith(db *relation.Database, relIdx int, tuples []relation.Tuple) (*relation.Database, error) {
	rels := make([]*relation.Relation, db.NumRelations())
	for i := range rels {
		src := db.Relation(i)
		rel, err := relation.NewRelation(src.Name(), src.Schema())
		if err != nil {
			return nil, err
		}
		for j := 0; j < src.Len(); j++ {
			if err := rel.AppendTuple(*src.Tuple(j)); err != nil {
				return nil, err
			}
		}
		rels[i] = rel
	}
	for _, t := range tuples {
		if err := rels[relIdx].AppendTuple(t); err != nil {
			return nil, err
		}
	}
	return relation.NewDatabase(rels...)
}

func sortedSetKeys(sets []*tupleset.Set) []string {
	keys := make([]string, len(sets))
	for i, s := range sets {
		keys[i] = s.Key()
	}
	sort.Strings(keys)
	return keys
}

// E12Append measures delta maintenance against rebuild-and-recompute on
// the E9 chain database across a fixed append sequence, rendering the
// markdown table and the BENCH_append.json trajectory record from the
// same run. Both variants maintain the full result list per append —
// the incremental one by patching it with the batch's delta, the
// rebuild one by enumerating the grown database from scratch — and the
// harness fails if their final result multisets ever diverge.
func E12Append() (*Table, *Record, error) {
	opts := core.Options{UseIndex: true, UseJoinIndex: true}
	batches, err := e12Batches()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecord("append", "Incremental append maintenance vs rebuild (E9 chain workload)")
	t := &Table{
		ID:     "E12",
		Title:  rec.Title,
		Header: []string{"variant", "ms total", "ms/append", "JCC checks", "tuples scanned", "|FD|"},
		Notes: []string{fmt.Sprintf("%d appends of %d tuples each; the incremental variant extends "+
			"the frozen database in place and enumerates only the batch-anchored delta, the rebuild "+
			"variant re-copies every relation and re-enumerates the full disjunction.",
			len(batches), len(batches[0].tuples))},
	}

	// Incremental: extend in place, enumerate the delta, patch the
	// maintained list.
	db, err := e9DB()
	if err != nil {
		return nil, nil, err
	}
	results, _, err := core.FullDisjunction(db, core.JCC, opts)
	if err != nil {
		return nil, nil, err
	}
	var incStats core.Stats
	incWall, incMallocs, incBytes := measure(func() {
		for _, b := range batches {
			ext, d, aerr := delta.Append(db, b.rel, b.tuples, opts)
			if aerr != nil {
				err = aerr
				return
			}
			results, _ = delta.Patch(d, results, delta.Bare, delta.Bare)
			incStats.Add(d.Stats)
			db = ext
		}
	})
	if err != nil {
		return nil, nil, err
	}

	// Rebuild: the old AppendRows path — copy, re-index, re-enumerate.
	rdb, err := e9DB()
	if err != nil {
		return nil, nil, err
	}
	var rebuilt []*tupleset.Set
	var rebStats core.Stats
	rebWall, rebMallocs, rebBytes := measure(func() {
		for _, b := range batches {
			next, rerr := rebuildWith(rdb, b.rel, b.tuples)
			if rerr != nil {
				err = rerr
				return
			}
			rdb = next
			var stats core.Stats
			rebuilt, stats, rerr = core.FullDisjunction(rdb, core.JCC, opts)
			if rerr != nil {
				err = rerr
				return
			}
			rebStats.Add(stats)
		}
	})
	if err != nil {
		return nil, nil, err
	}

	ik, rk := sortedSetKeys(results), sortedSetKeys(rebuilt)
	if len(ik) != len(rk) {
		return nil, nil, fmt.Errorf("E12: incremental maintained %d results, rebuild %d", len(ik), len(rk))
	}
	for i := range ik {
		if ik[i] != rk[i] {
			return nil, nil, fmt.Errorf("E12: result multisets diverge at %d: %q vs %q", i, ik[i], rk[i])
		}
	}
	if got, want := db.Fingerprint(), rdb.Fingerprint(); got != want {
		return nil, nil, fmt.Errorf("E12: rolled fingerprint %016x != rebuilt %016x", got, want)
	}

	perAppend := func(d time.Duration) float64 {
		return float64(d.Microseconds()) / 1000 / float64(len(batches))
	}
	for _, v := range []struct {
		name            string
		wall            time.Duration
		stats           core.Stats
		mallocs, bytes  uint64
		resultsAtTheEnd int
	}{
		{"incremental (extend + delta + patch)", incWall, incStats, incMallocs, incBytes, len(results)},
		{"rebuild (copy + re-index + re-enumerate)", rebWall, rebStats, rebMallocs, rebBytes, len(rebuilt)},
	} {
		m := statsMetric(v.name, v.wall, v.mallocs, v.bytes, v.resultsAtTheEnd, 1, v.stats)
		m.Phases = map[string]float64{"per_append_ms": perAppend(v.wall)}
		rec.Variants = append(rec.Variants, m)
		t.Rows = append(t.Rows, []string{
			v.name,
			msec(v.wall),
			fmt.Sprintf("%.3f", perAppend(v.wall)),
			fmt.Sprintf("%d", v.stats.JCCChecks),
			fmt.Sprintf("%d", v.stats.TuplesScanned),
			fmt.Sprintf("%d", v.resultsAtTheEnd),
		})
	}
	return t, rec, nil
}
