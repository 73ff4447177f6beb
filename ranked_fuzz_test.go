package fd_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	fd "repro"
	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/rank"
	"repro/internal/tupleset"
)

// FuzzRankedOpen checks the ranked modes on tiny databases decoded by
// fuzzDB (FuzzPassOwnership's decoder): for ranked fmax and pairsum,
// and approx-ranked fmax and pairsum under the exact and the
// Levenshtein similarity, the engine cursor with the join index off
// and on, and fd.Open, are multiset-equal to the internal/naive oracle
// with ranks that never increase, and all three give equal rank
// sequences. The join index changes which tuples GETNEXTRESULT
// visits, not which results exist or how they rank. The seed corpus is
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
			s    approx.Sim
			want map[string]int
		}{
			{fd.ModeRanked, "", nil, countSets(naive.FullDisjunction(db))},
			{fd.ModeApproxRanked, "exact", approx.ExactSim{}, approxOracle(approx.ExactSim{})},
			{fd.ModeApproxRanked, "levenshtein", approx.LevenshteinSim{}, approxOracle(approx.LevenshteinSim{})},
		}
		ranking := map[string]rank.Func{"fmax": rank.FMax{}, "pairsum": rank.PairSum()}
		ctx := context.Background()
		for _, c := range cases {
			for _, rankName := range []string{"fmax", "pairsum"} {
				f := ranking[rankName]
				var ranks [3][]float64
				for i, joinIndex := range []bool{false, true} {
					opts := core.Options{UseIndex: true, UseJoinIndex: joinIndex}
					p := core.JCC
					if c.mode == fd.ModeApproxRanked {
						p = qualify(t, &approx.Amin{S: c.s}, tau)
					}
					where := fmt.Sprintf("%s/%s%s join index %v", c.mode, rankName, c.sim, joinIndex)
					rc, err := rank.NewCursor(ctx, db, p, f, opts)
					var got map[string]int
					got, ranks[i] = drainRanked(t, where, rc, err)
					sameMultiset(t, where, got, c.want)
				}

				q := fd.Query{Mode: c.mode, Rank: rankName}
				if c.mode == fd.ModeApproxRanked {
					q.Tau, q.Sim = tau, c.sim
				}
				where := fmt.Sprintf("%s/%s%s fd.Open", c.mode, rankName, c.sim)
				rs, err := fd.Open(ctx, db, q)
				var got map[string]int
				got, ranks[2] = drainRanked(t, where, rs, err)
				sameMultiset(t, where, got, c.want)

				if !slices.Equal(ranks[0], ranks[1]) || !slices.Equal(ranks[1], ranks[2]) {
					t.Fatalf("%s/%s%s: rank sequence %v without the join index, %v with it, %v through fd.Open",
						c.mode, rankName, c.sim, ranks[0], ranks[1], ranks[2])
				}
			}
		}
	})
}

// drainRanked drains a ranked cursor, as opened, failing on an error
// or a rank above its predecessor, and returns the result multiset and
// the rank sequence.
func drainRanked(t *testing.T, where string, rs fd.Results, err error) (map[string]int, []float64) {
	t.Helper()
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
