package fd_test

import (
	"testing"

	fd "repro"
	"repro/internal/workload"
)

func TestPublicAPIApproxRanked(t *testing.T) {
	db, _ := workload.TouristApprox()
	imp := map[string]float64{"c1": 1, "c2": 2, "c3": 3, "a1": 4, "a2": 3, "a3": 1}
	for r := 0; r < db.NumRelations(); r++ {
		rel := db.Relation(r)
		for i := 0; i < rel.Len(); i++ {
			if v, ok := imp[rel.Tuple(i).Label]; ok {
				rel.MutateTuple(i, func(t *fd.Tuple) { t.Imp = v })
			}
		}
	}
	q := fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.4, Rank: "fmax", Sim: "levenshtein"}

	q.K = 3
	top, _, err := drain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 3 {
		t.Fatalf("top-3 returned %d", len(top))
	}
	for i := 1; i < len(top); i++ {
		if top[i-1].Rank < top[i].Rank {
			t.Error("rank order violated")
		}
	}

	q.K, q.RankTau = 0, 3
	thr, _, err := drain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range thr {
		if r.Rank < 3 {
			t.Errorf("below rank threshold: %v", r.Rank)
		}
	}

	q.K, q.RankTau = 2, 0
	streamed, _, err := drain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 2 {
		t.Errorf("streamed %d", len(streamed))
	}
}
