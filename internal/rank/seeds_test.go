package rank

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// randomSeedDB draws one small database of the given shape: at most 5
// relations and at most 8 tuples per relation, over a small domain with
// nulls so that both joining and non-joining pairs occur.
func randomSeedDB(t *testing.T, shape string, rng *rand.Rand) *relation.Database {
	t.Helper()
	cfg := workload.Config{
		Relations:         2 + rng.Intn(4),
		TuplesPerRelation: 1 + rng.Intn(8),
		Domain:            1 + rng.Intn(3),
		NullRate:          0.15,
		ImpMax:            10,
		Seed:              rng.Int63(),
	}
	var db *relation.Database
	var err error
	switch shape {
	case "chain":
		db, err = workload.Chain(cfg)
	case "star":
		db, err = workload.Star(cfg)
	case "cycle":
		cfg.Relations = 3 + rng.Intn(3)
		db, err = workload.Cycle(cfg)
	case "dirty":
		db, err = workload.DirtyChain(workload.DirtyConfig{
			Config: cfg, ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5})
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSmallSetsMatchOracle checks the c-bounded seed enumerator against
// the brute-force oracle: for random chain, star, cycle and dirty
// databases, every c ∈ {1, 2, 3} and both join predicates (JCC and
// Amin over Levenshtein similarity at a threshold), smallSets returns
// exactly the oracle's key sequence restricted to sets of at most c
// tuples — same sets, same order, no duplicates.
func TestSmallSetsMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	amin := &approx.Amin{S: approx.LevenshteinSim{}}
	// sizeC counts, per c, the cases whose expected sequence holds a set
	// of exactly c tuples, so a run that never exercises the last
	// level cannot pass silently.
	sizeC := map[int]int{}
	for iter := 0; iter < 12; iter++ {
		for _, shape := range []string{"chain", "star", "cycle", "dirty"} {
			db := randomSeedDB(t, shape, rng)
			u := tupleset.NewUniverse(db)
			preds := map[string]func(*tupleset.Set) bool{
				"jcc": u.JCC,
				"amin≥0.6": func(s *tupleset.Set) bool {
					return amin.Score(u, s) >= 0.6
				},
			}
			for name, qualifies := range preds {
				all := naive.EnumerateConnected(u, qualifies)
				for c := 1; c <= 3; c++ {
					var want []string
					for _, s := range all {
						if s.Len() <= c {
							want = append(want, s.Key())
						}
						if s.Len() == c {
							sizeC[c]++
						}
					}
					var got []string
					for _, s := range smallSets(u, c, qualifies) {
						got = append(got, s.Key())
					}
					label := fmt.Sprintf("iter %d %s %s c=%d", iter, shape, name, c)
					if len(got) != len(want) {
						t.Fatalf("%s: %d seed sets, oracle %d", label, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%s: seed %d differs from the oracle", label, i)
						}
					}
				}
			}
		}
	}
	for c := 1; c <= 3; c++ {
		if sizeC[c] == 0 {
			t.Errorf("no case produced a seed set of size %d", c)
		}
	}
}

// openChain is the 4×200 chain the open-cost checks run on.
func openChain(tb testing.TB) *relation.Database {
	tb.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 200, Domain: 400, NullRate: 0.1, ImpMax: 100, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// BenchmarkRankedOpen measures NewCursor alone — the Fig 3
// initialisation of seed enumeration plus queue merge — for a 1- and a
// 2-determined ranking function.
func BenchmarkRankedOpen(b *testing.B) {
	db := openChain(b)
	for _, f := range []Func{FMax{}, PairSum()} {
		b.Run(f.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c, err := NewCursor(context.Background(), db, core.JCC, f, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				c.Close()
			}
		})
	}
}

// TestRankedOpenAllocsLinear guards the open cost of a 1-determined
// ranked cursor: its seeds are the singletons, so NewCursor may
// allocate a bounded number of objects per tuple, not one per pair of
// tuples.
func TestRankedOpenAllocsLinear(t *testing.T) {
	db := openChain(t)
	tuples := 0
	for i := 0; i < db.NumRelations(); i++ {
		tuples += db.Relation(i).Len()
	}
	// Open once so lazy per-database state (dictionary encoding, the
	// connection graph) is not charged to the measured runs.
	if _, err := NewCursor(context.Background(), db, core.JCC, FMax{}, core.Options{}); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(3, func() {
		c, err := NewCursor(context.Background(), db, core.JCC, FMax{}, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
	})
	const limit = 50
	if perTuple := allocs / float64(tuples); perTuple >= limit {
		t.Fatalf("NewCursor(fmax) allocated %.0f objects for %d tuples (%.1f per tuple), want < %d",
			allocs, tuples, perTuple, limit)
	}
}
