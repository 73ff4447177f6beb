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
			want map[string]int
		}{
			{fd.ModeRanked, "", countSets(naive.FullDisjunction(db))},
			{fd.ModeApproxRanked, "exact", approxOracle(approx.ExactSim{})},
			{fd.ModeApproxRanked, "levenshtein", approxOracle(approx.LevenshteinSim{})},
		}
		ctx := context.Background()
		for _, c := range cases {
			for _, rankName := range []string{"fmax", "pairsum"} {
				f, err := fd.RankByName(rankName)
				if err != nil {
					t.Fatal(err)
				}
				var ranks [3][]float64
				for i, joinIndex := range []bool{false, true} {
					opts := core.Options{UseIndex: true, UseJoinIndex: joinIndex}
					var rc *rank.Cursor
					if c.mode == fd.ModeRanked {
						rc, err = rank.NewCursor(ctx, db, f, opts)
					} else {
						sim, _ := fd.SimByName(c.sim)
						rc, err = rank.NewApproxCursor(ctx, db, &approx.Amin{S: sim}, tau, f, opts)
					}
					where := fmt.Sprintf("%s/%s%s join index %v", c.mode, rankName, c.sim, joinIndex)
					if err != nil {
						t.Fatalf("%s: %v", where, err)
					}
					var got map[string]int
					got, ranks[i] = drainRanked(t, where, func() (*tupleset.Set, float64, bool) {
						r, ok := rc.Next()
						return r.Set, r.Rank, ok
					}, rc.Err)
					sameMultiset(t, where, got, c.want)
				}

				q := fd.Query{Mode: c.mode, Rank: rankName}
				if c.mode == fd.ModeApproxRanked {
					q.Tau, q.Sim = tau, c.sim
				}
				where := fmt.Sprintf("%s/%s%s fd.Open", c.mode, rankName, c.sim)
				rs, err := fd.Open(ctx, db, q)
				if err != nil {
					t.Fatalf("%s: %v", where, err)
				}
				var got map[string]int
				got, ranks[2] = drainRanked(t, where, func() (*tupleset.Set, float64, bool) {
					r, ok := rs.Next()
					return r.Set, r.Rank, ok
				}, rs.Err)
				rs.Close()
				sameMultiset(t, where, got, c.want)

				if !slices.Equal(ranks[0], ranks[1]) || !slices.Equal(ranks[1], ranks[2]) {
					t.Fatalf("%s/%s%s: rank sequence %v without the join index, %v with it, %v through fd.Open",
						c.mode, rankName, c.sim, ranks[0], ranks[1], ranks[2])
				}
			}
		}
	})
}

// drainRanked drains a ranked cursor through next, failing on an error
// or a rank above its predecessor, and returns the result multiset and
// the rank sequence.
func drainRanked(t *testing.T, where string, next func() (*tupleset.Set, float64, bool), errf func() error) (map[string]int, []float64) {
	t.Helper()
	got := map[string]int{}
	var ranks []float64
	for s, r, ok := next(); ok; s, r, ok = next() {
		if n := len(ranks); n > 0 && r > ranks[n-1] {
			t.Fatalf("%s: rank %v after %v", where, r, ranks[n-1])
		}
		got[s.Key()]++
		ranks = append(ranks, r)
	}
	if err := errf(); err != nil {
		t.Fatalf("%s: %v", where, err)
	}
	return got, ranks
}
