package fd_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// FuzzRankedOpen checks the ranked modes on tiny databases decoded by
// fuzzDB (FuzzPassOwnership's decoder): for ranked fmax and pairsum,
// and approx-ranked fmax and pairsum under the exact and the
// Levenshtein similarity, with the join index off and on, fd.Open is
// multiset-equal to the internal/naive oracle and its ranks never
// increase, and the two index flags give equal rank sequences. The
// join index changes which tuples GETNEXTRESULT visits, not which
// results exist or how they rank. The seed corpus is
// testdata/fuzz/FuzzRankedOpen; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzRankedOpen -fuzztime 20s .
func FuzzRankedOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db, tau := fuzzDB(data)
		u := tupleset.NewUniverse(db)
		approxOracle := func(s approx.Sim) map[string]int {
			a := &approx.Amin{S: s}
			return countSets(naive.ApproxFullDisjunction(db,
				func(s *tupleset.Set) float64 { return a.Score(u, s) }, tau))
		}
		cases := []struct {
			mode fd.Mode
			sim  string
			want map[string]int
		}{
			{fd.ModeRanked, "", countSets(naive.FullDisjunction(db))},
			{fd.ModeApproxRanked, "exact", approxOracle(approx.ExactSim{})},
			{fd.ModeApproxRanked, "levenshtein", approxOracle(approx.LevenshteinSim{})},
		}
		for _, c := range cases {
			for _, rank := range []string{"fmax", "pairsum"} {
				q := fd.Query{Mode: c.mode, Rank: rank}
				if c.mode == fd.ModeApproxRanked {
					q.Tau, q.Sim = tau, c.sim
				}
				var ranks [2][]float64
				for i, joinIndex := range []bool{false, true} {
					q.Options = fd.QueryOptions{UseIndex: true, UseJoinIndex: joinIndex}
					where := fmt.Sprintf("%s/%s%s join index %v", c.mode, rank, c.sim, joinIndex)
					var got map[string]int
					got, ranks[i] = drainRanked(t, db, q, where)
					sameMultiset(t, where, got, c.want)
				}
				if !slices.Equal(ranks[0], ranks[1]) {
					t.Fatalf("%s/%s%s: rank sequence %v without the join index, %v with it", c.mode, rank, c.sim, ranks[0], ranks[1])
				}
			}
		}
	})
}

// drainRanked drains a ranked query, failing on an error or a rank
// above its predecessor, and returns the result multiset and the rank
// sequence.
func drainRanked(t *testing.T, db *relation.Database, q fd.Query, where string) (map[string]int, []float64) {
	t.Helper()
	rs, err := fd.Open(context.Background(), db, q)
	if err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	defer rs.Close()
	got := map[string]int{}
	var ranks []float64
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		if n := len(ranks); n > 0 && r.Rank > ranks[n-1] {
			t.Fatalf("%s: rank %v after %v", where, r.Rank, ranks[n-1])
		}
		got[r.Set.Key()]++
		ranks = append(ranks, r.Rank)
	}
	if err := rs.Err(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return got, ranks
}
