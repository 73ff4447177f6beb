package rank

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// TestApproxRankedMatchesBruteForce cross-checks the ranked
// approximate enumeration against sorting the brute-force AFD oracle.
func TestApproxRankedMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, err := workload.DirtyChain(workload.DirtyConfig{
			Config: workload.Config{Relations: 4, TuplesPerRelation: 4, Domain: 3,
				ImpMax: 10, Seed: seed},
			ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		amin := &approx.Amin{S: approx.LevenshteinSim{}}
		f := FMax{}
		for _, tau := range []float64{0.4, 0.7} {
			got := collect(t, newApproxRanked(t, db, amin, tau, f), 0, 0)
			want := naive.ApproxFullDisjunction(db, func(s *tupleset.Set) float64 {
				return amin.Score(u, s)
			}, tau)
			if len(got) != len(want) {
				t.Fatalf("seed %d τ=%v: got %d results, oracle %d", seed, tau, len(got), len(want))
			}
			// Same sets.
			wantKeys := map[string]bool{}
			for _, s := range want {
				wantKeys[s.Key()] = true
			}
			for _, r := range got {
				if !wantKeys[r.Set.Key()] {
					t.Errorf("seed %d τ=%v: spurious %s", seed, tau, r.Set.Format(db))
				}
			}
			// Rank order non-increasing and rank sequence matches the
			// sorted oracle ranks.
			wantRanks := make([]float64, len(want))
			for i, s := range want {
				wantRanks[i] = f.Rank(u, s)
			}
			sort.Sort(sort.Reverse(sort.Float64Slice(wantRanks)))
			for i, r := range got {
				if i > 0 && got[i-1].Rank < r.Rank {
					t.Errorf("seed %d τ=%v: order violated at %d", seed, tau, i)
				}
				if math.Abs(r.Rank-wantRanks[i]) > 1e-9 {
					t.Errorf("seed %d τ=%v pos %d: rank %v, oracle %v", seed, tau, i, r.Rank, wantRanks[i])
				}
			}
		}
	}
}

func TestApproxTopKAndThreshold(t *testing.T) {
	db, sims := workload.TouristApprox()
	// Give the tourist tuples importances so ranking is non-trivial.
	imp := map[string]float64{"c1": 1, "c2": 2, "c3": 3, "a1": 4, "a2": 3, "a3": 1}
	for r := 0; r < db.NumRelations(); r++ {
		rel := db.Relation(r)
		for i := 0; i < rel.Len(); i++ {
			if v, ok := imp[rel.Tuple(i).Label]; ok {
				rel.MutateTuple(i, func(t *relation.Tuple) { t.Imp = v })
			}
		}
	}
	amin := &approx.Amin{S: approx.NewSimTable(sims)}

	top := collect(t, newApproxRanked(t, db, amin, 0.4, FMax{}), 2, 0)
	if len(top) != 2 {
		t.Fatalf("top-2 returned %d", len(top))
	}
	if top[0].Rank < top[1].Rank {
		t.Error("order violated")
	}
	// The {c1,a1} pairing survives approximately (sim(c1,a1)=0.8 ≥ 0.4)
	// and carries the best rank 4.
	if top[0].Rank != 4 {
		t.Errorf("top rank = %v, want 4", top[0].Rank)
	}

	thr := collect(t, newApproxRanked(t, db, amin, 0.4, FMax{}), 0, 3)
	if len(thr) == 0 {
		t.Error("threshold 3 returned nothing")
	}
	for _, r := range thr {
		if r.Rank < 3 {
			t.Errorf("threshold result below 3: %v", r.Rank)
		}
	}

	// Validation paths: approx.Qualify rejects τ = 0 and a nil join,
	// NewCursor a nil predicate and a ranking that is not c-determined.
	ctx := context.Background()
	if _, err := approx.Qualify(amin, 0); err == nil {
		t.Error("τ=0 accepted")
	}
	if _, err := approx.Qualify(nil, 0.5); err == nil {
		t.Error("nil join accepted")
	}
	if _, err := NewCursor(ctx, db, nil, FMax{}, core.Options{UseIndex: true}); err == nil {
		t.Error("nil predicate accepted")
	}
	p, err := approx.Qualify(amin, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCursor(ctx, db, p, FSum{}, core.Options{UseIndex: true}); err == nil {
		t.Error("fsum accepted")
	}
}

// newApproxRanked opens a ranked approximate cursor with the hash
// index on, failing the test on error.
func newApproxRanked(t *testing.T, db *relation.Database, a approx.Join, tau float64, f Func) *Cursor {
	t.Helper()
	p, err := approx.Qualify(a, tau)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCursor(context.Background(), db, p, f, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return c
}
