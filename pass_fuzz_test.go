package fd_test

import (
	"context"
	"fmt"
	"testing"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once
// it is exhausted, so every input decodes to some database.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// fuzzValues is the join-attribute domain of fuzz databases: short
// strings whose edit distances give graded Levenshtein similarities
// (index 0 is ⊥).
var fuzzValues = []string{"", "a", "b", "ab", "bb"}

// fuzzDB decodes data into a tiny database: 2–4 relations shaped as a
// chain, a cycle, or a star whose hub is relation 0 (so the suffix
// schemas R1..Rn of the later passes are disconnected), at most 6
// tuples in all, nullable join attributes, and a per-tuple probability
// and importance.
// It also returns the threshold the approximate checks use.
func fuzzDB(data []byte) (*relation.Database, float64) {
	in := fuzzBytes(data)
	shape := in.next() % 3
	n := 2 + in.next()%3
	if shape == 1 && n < 3 {
		n = 3 // a cycle needs three relations
	}
	tau := []float64{0.5, 0.7, 1}[in.next()%3]
	join := func(i int) relation.Attribute { return relation.Attribute(fmt.Sprintf("J%d", i)) }
	rels := make([]*relation.Relation, n)
	budget := 6
	for i := range rels {
		var attrs []relation.Attribute
		switch {
		case shape == 0: // chain: Ri joins Ri-1 on J(i-1) and Ri+1 on Ji
			if i > 0 {
				attrs = append(attrs, join(i-1))
			}
			if i < n-1 {
				attrs = append(attrs, join(i))
			}
		case shape == 1: // cycle: Ri joins Ri+1 mod n on Ji
			attrs = []relation.Attribute{join(i), join((i + n - 1) % n)}
		case i == 0: // star hub: one join attribute per satellite
			for s := 1; s < n; s++ {
				attrs = append(attrs, join(s))
			}
		default: // star satellite
			attrs = []relation.Attribute{join(i)}
		}
		rels[i] = relation.MustRelation(fmt.Sprintf("R%d", i), relation.MustSchema(attrs...))
		count := min(in.next()%4, budget)
		budget -= count
		for t := 0; t < count; t++ {
			// One byte gives the probability and the importance, so
			// the ranked checks see graded ranks without changing how
			// the rest of an input decodes.
			w := in.next()
			tuple := relation.Tuple{
				Label:  fmt.Sprintf("r%d_%d", i, t),
				Values: make([]relation.Value, len(attrs)),
				Imp:    float64(1 + w/3%4),
				Prob:   []float64{1, 0.8, 0.5}[w%3],
			}
			for p := range tuple.Values {
				if v := in.next() % len(fuzzValues); v > 0 {
					tuple.Values[p] = relation.V(fuzzValues[v])
				}
			}
			if err := rels[i].AppendTuple(tuple); err != nil {
				panic(err) // unreachable: tuple built to match schema
			}
		}
	}
	return relation.MustDatabase(rels...), tau
}

// FuzzPassOwnership checks the suffix passes against the full passes
// and the oracle on tiny decoded databases. Per pass, anchor window and
// index flags, for the exact engine and for Amin and Aprod: the suffix
// pass emits exactly the full pass's results whose minimal relation is
// the pass, in no more iterations. Per Workers {1, 2, 3}: fd.Open
// (exact, and approx under both similarities), and per index flags the
// exact, Amin and Aprod engine cursors, are multiset-equal to the
// internal/naive oracle.
// The seed corpus is testdata/fuzz/FuzzPassOwnership; run the fuzzer
// with
//
//	go test -run '^$' -fuzz FuzzPassOwnership -fuzztime 20s .
func FuzzPassOwnership(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db, tau := fuzzDB(data)
		checkSuffixPasses(t, db, "exact", core.JCC)
		joins := map[string]approx.Join{
			"amin/levenshtein":  &approx.Amin{S: approx.LevenshteinSim{}},
			"amin/exact":        &approx.Amin{S: approx.ExactSim{}},
			"aprod/levenshtein": &approx.Aprod{S: approx.LevenshteinSim{}},
		}
		for name, a := range joins {
			checkSuffixPasses(t, db, name, qualify(t, a, tau))
		}
		checkOracle(t, db, tau)
	})
}

// fuzzFlags are the index-flag combinations every check runs under.
var fuzzFlags = []core.Options{{}, {UseIndex: true}, {UseJoinIndex: true}, {UseIndex: true, UseJoinIndex: true}}

// checkSuffixPasses compares each pass's suffix enumeration with the
// full one, over the full anchor window and a split of it in two.
func checkSuffixPasses(t *testing.T, db *relation.Database, label string, p core.Predicate) {
	t.Helper()
	u := tupleset.NewUniverse(db)
	for _, opts := range fuzzFlags {
		for pass := 0; pass < db.NumRelations(); pass++ {
			n := db.Relation(pass).Len()
			for _, w := range [][2]int{{0, n}, {0, n / 2}, {n / 2, n}} {
				suffix, err := core.NewPassEnumerator(u, p, pass, w[0], w[1], opts)
				if err != nil {
					t.Fatal(err)
				}
				full, err := core.NewWindowEnumerator(u, p, pass, w[0], w[1], opts)
				if err != nil {
					t.Fatal(err)
				}
				want := map[string]int{}
				for _, s := range drainTask(full) {
					if int(s.Refs()[0].Rel) == pass {
						want[s.Key()]++
					}
				}
				where := fmt.Sprintf("%s %+v pass %d window [%d,%d)", label, opts, pass, w[0], w[1])
				sameMultiset(t, where, countSets(drainTask(suffix)), want)
				if si, fi := suffix.Stats().Iterations, full.Stats().Iterations; si > fi {
					t.Fatalf("%s: suffix pass ran %d iterations, full pass %d", where, si, fi)
				}
			}
		}
	}
}

// checkOracle holds fd.Open, and the engine cursors under every index
// flag combination (Aprod, which fd.Open does not offer, included), to
// the brute-force oracle.
func checkOracle(t *testing.T, db *relation.Database, tau float64) {
	t.Helper()
	u := tupleset.NewUniverse(db)
	exact := countSets(naive.FullDisjunction(db))
	sims := map[string]approx.Sim{"levenshtein": approx.LevenshteinSim{}, "exact": approx.ExactSim{}}
	joins := map[string]approx.Join{"aprod": &approx.Aprod{S: approx.LevenshteinSim{}}}
	for name, sim := range sims {
		joins["amin/"+name] = &approx.Amin{S: sim}
	}
	want := map[string]map[string]int{}
	for name, a := range joins {
		want[name] = countSets(naive.ApproxFullDisjunction(db, func(s *tupleset.Set) float64 { return a.Score(u, s) }, tau))
	}
	ctx := context.Background()
	for workers := 1; workers <= 3; workers++ {
		o := fd.QueryOptions{Workers: workers}
		where := fmt.Sprintf("fd.Open %+v", o)
		got, _ := drainKeys(t, db, fd.Query{Options: o})
		sameMultiset(t, "exact "+where, got, exact)
		for name := range sims {
			got, _ := drainKeys(t, db, fd.Query{Mode: fd.ModeApprox, Tau: tau, Sim: name, Options: o})
			sameMultiset(t, "approx/"+name+" "+where, got, want["amin/"+name])
		}
		for _, flags := range fuzzFlags {
			where := fmt.Sprintf("%+v workers %d", flags, workers)
			var (
				got map[string]int
				err error
			)
			if workers == 1 {
				got, _, err = drainCursor(core.NewCursor(ctx, db, core.JCC, flags))
			} else {
				got, _, err = drainCursor(core.NewParallelCursor(ctx, db, core.JCC, flags, workers))
			}
			if err != nil {
				t.Fatal(err)
			}
			sameMultiset(t, "exact "+where, got, exact)
			for name, a := range joins {
				p := qualify(t, a, tau)
				if workers == 1 {
					got, _, err = drainCursor(core.NewCursor(ctx, db, p, flags))
				} else {
					got, _, err = drainCursor(core.NewParallelCursor(ctx, db, p, flags, workers))
				}
				if err != nil {
					t.Fatal(err)
				}
				sameMultiset(t, name+" "+where, got, want[name])
			}
		}
	}
}

// drainCursor drains a cursor, as opened, to its result multiset and
// final stats.
func drainCursor(c fd.Results, err error) (map[string]int, fd.Stats, error) {
	if err != nil {
		return nil, fd.Stats{}, err
	}
	defer c.Close()
	got := map[string]int{}
	for r, ok := c.Next(); ok; r, ok = c.Next() {
		got[r.Set.Key()]++
	}
	return got, c.Stats(), c.Err()
}

func drainTask(e core.TaskEnumerator) []*tupleset.Set {
	var out []*tupleset.Set
	for s, ok := e.Next(); ok; s, ok = e.Next() {
		out = append(out, s)
	}
	return out
}

func countSets(sets []*tupleset.Set) map[string]int {
	m := make(map[string]int, len(sets))
	for _, s := range sets {
		m[s.Key()]++
	}
	return m
}
