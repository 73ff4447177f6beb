package rank

import (
	"context"
	"math"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// newRanked opens an exact ranked cursor, failing the test on error.
func newRanked(t *testing.T, db *relation.Database, f Func, opts core.Options) *Cursor {
	t.Helper()
	c, err := NewCursor(context.Background(), db, core.JCC, f, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// collect pulls c's rank-ordered results and closes it: at most k of
// them when k > 0 (the top-(k,f) problem), stopping at the first one
// ranked below tau (the (τ,f)-threshold problem, Remark 5.6).
func collect(t *testing.T, c *Cursor, k int, tau float64) []core.Result {
	t.Helper()
	defer c.Close()
	var out []core.Result
	for k <= 0 || len(out) < k {
		r, ok := c.Next()
		if !ok || r.Rank < tau {
			break
		}
		out = append(out, r)
	}
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestFMaxAndFSum(t *testing.T) {
	db := workload.TouristRanked()
	u := tupleset.NewUniverse(db)
	var refs = map[string]relation.Ref{}
	db.ForEachRef(func(r relation.Ref) bool { refs[db.Label(r)] = r; return true })

	s := u.FromRefs(refs["c1"], refs["a2"], refs["s1"]) // imps 1, 3, 1
	if got := (FMax{}).Rank(u, s); got != 3 {
		t.Errorf("fmax = %v, want 3", got)
	}
	if got := (FSum{}).Rank(u, s); got != 5 {
		t.Errorf("fsum = %v, want 5", got)
	}
	if (FMax{}).C() != 1 || (FSum{}).C() != 0 || PairSum().C() != 2 || PaperTriple().C() != 3 {
		t.Error("determinacy bounds wrong")
	}
	if Validate(FMax{}) != nil {
		t.Error("fmax must validate")
	}
	if Validate(FSum{}) == nil {
		t.Error("fsum must not validate (Proposition 5.1)")
	}
	if Validate(nil) == nil {
		t.Error("nil must not validate")
	}
}

func TestMaxOverConnectedMonotone(t *testing.T) {
	db := workload.TouristRanked()
	u := tupleset.NewUniverse(db)
	var refs = map[string]relation.Ref{}
	db.ForEachRef(func(r relation.Ref) bool { refs[db.Label(r)] = r; return true })

	for _, f := range []Func{PairSum(), PaperTriple(), FMax{}} {
		small := u.FromRefs(refs["c1"], refs["a2"])
		big := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
		if f.Rank(u, small) > f.Rank(u, big) {
			t.Errorf("%s not monotone: f(small)=%v > f(big)=%v",
				f.Name(), f.Rank(u, small), f.Rank(u, big))
		}
	}
	// PairSum picks the best connected pair: c1(1)+a2(3) = 4.
	s := u.FromRefs(refs["c1"], refs["a2"], refs["s1"])
	if got := PairSum().Rank(u, s); got != 4 {
		t.Errorf("fpairsum = %v, want 4", got)
	}
}

// TestRankedOrderTourist checks the Section 1 motivation: with climate
// preferences tropical > temperate > diverse, the ranked stream emits
// the Bahamas result first.
func TestRankedOrderTourist(t *testing.T) {
	db := workload.TouristRanked()
	got := collect(t, newRanked(t, db, FMax{}, core.Options{}), 6, 0)
	if len(got) != 6 {
		t.Fatalf("got %d results", len(got))
	}
	// Ranks must be non-increasing (Lemma 5.4).
	for i := 1; i < len(got); i++ {
		if got[i-1].Rank < got[i].Rank {
			t.Errorf("rank order violated at %d: %v < %v", i, got[i-1].Rank, got[i].Rank)
		}
	}
	// imp(a1)=4 puts {c1,a1} on top.
	if got[0].Set.Format(db) != "{c1, a1}" || got[0].Rank != 4 {
		t.Errorf("top = %s rank %v", got[0].Set.Format(db), got[0].Rank)
	}
}

// TestTopKMatchesBruteForce cross-validates PriorityIncrementalFD
// against the oracle for fmax and fpairsum on random workloads.
func TestTopKMatchesBruteForce(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		db, err := workload.Random(workload.Config{
			Relations: 4, TuplesPerRelation: 4, Domain: 3,
			NullRate: 0.2, ImpMax: 10, Seed: seed}, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		for _, f := range []Func{FMax{}, PairSum(), PaperTriple()} {
			rankOf := func(s *tupleset.Set) float64 { return f.Rank(u, s) }
			for _, k := range []int{1, 3, 100} {
				got := collect(t, newRanked(t, db, f, core.Options{}), k, 0)
				want := naive.TopK(db, rankOf, k)
				if len(got) != len(want) {
					t.Fatalf("seed %d %s k=%d: got %d results, oracle %d",
						seed, f.Name(), k, len(got), len(want))
				}
				// Ranks must agree position-wise (sets may differ on
				// ties, which are broken arbitrarily per the paper).
				for i := range got {
					if math.Abs(got[i].Rank-rankOf(want[i])) > 1e-9 {
						t.Errorf("seed %d %s k=%d pos %d: rank %v, oracle %v",
							seed, f.Name(), k, i, got[i].Rank, rankOf(want[i]))
					}
				}
			}
		}
	}
}

// TestRankedStreamIsWholeFD verifies that draining the ranked stream
// yields exactly FD(R).
func TestRankedStreamIsWholeFD(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 5, Domain: 3,
		NullRate: 0.2, ImpMax: 5, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, r := range collect(t, newRanked(t, db, PairSum(), core.Options{}), 0, 0) {
		got = append(got, r.Set.Format(db))
	}
	var want []string
	for _, s := range naive.FullDisjunction(db) {
		want = append(want, s.Format(db))
	}
	sort.Strings(got)
	sort.Strings(want)
	if len(got) != len(want) {
		t.Fatalf("got %d results, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ranked stream differs from FD:\n got  %v\n want %v", got, want)
		}
	}
}

func TestThreshold(t *testing.T) {
	db := workload.TouristRanked()
	got := collect(t, newRanked(t, db, FMax{}, core.Options{}), 0, 3)
	// Results with fmax ≥ 3: {c1,a1} (4), {c1,a2,s1} (3), {c3,a3} (3).
	if len(got) != 3 {
		var names []string
		for _, r := range got {
			names = append(names, r.Set.Format(db))
		}
		t.Fatalf("threshold returned %d results: %v", len(got), names)
	}
	for _, r := range got {
		if r.Rank < 3 {
			t.Errorf("result %s below threshold: %v", r.Set.Format(db), r.Rank)
		}
	}
	// τ above every rank: nothing.
	none := collect(t, newRanked(t, db, FMax{}, core.Options{}), 0, 100)
	if len(none) != 0 {
		t.Errorf("τ=100 returned %d results", len(none))
	}
}

func TestTopKEdgeCases(t *testing.T) {
	db := workload.TouristRanked()
	if got := collect(t, newRanked(t, db, FMax{}, core.Options{}), 1, 0); len(got) != 1 {
		t.Errorf("k=1 returned %d", len(got))
	}
	if _, err := NewCursor(context.Background(), db, core.JCC, FSum{}, core.Options{}); err == nil {
		t.Error("fsum accepted by ranked enumeration")
	}
	// k beyond |FD|: all six results.
	got := collect(t, newRanked(t, db, FMax{}, core.Options{}), 50, 0)
	if len(got) != 6 {
		t.Errorf("k=50 returned %d", len(got))
	}
	// No duplicates despite multi-queue generation.
	seen := map[string]bool{}
	for _, r := range got {
		if seen[r.Set.Key()] {
			t.Errorf("duplicate %s", r.Set.Format(db))
		}
		seen[r.Set.Key()] = true
	}
}

// TestProposition51 demonstrates the hardness construction: with
// imp(t)=1 for all tuples, the top-(1,fsum) answer has n tuples iff the
// natural join is non-empty.
func TestProposition51(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		db, err := workload.Clique(workload.Config{
			Relations: 4, TuplesPerRelation: 3, Domain: 2, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		fsum := func(s *tupleset.Set) float64 { return (FSum{}).Rank(u, s) }
		top := naive.TopK(db, fsum, 1)
		if len(top) != 1 {
			t.Fatal("empty FD")
		}
		gotFull := top[0].Len() == db.NumRelations()
		wantFull := naive.NaturalJoinNonEmpty(db)
		if gotFull != wantFull {
			t.Errorf("seed %d: top-1 fsum fullness %v, join non-emptiness %v",
				seed, gotFull, wantFull)
		}
	}
}

// TestEnginePinnedStats pins the work of ranked fmax with the hash
// index alone, a configuration fd.Open does not run (it always adds
// the join index), to literal Stats on the 4×8 chain: the full drain,
// the top-4 prefix and the RankTau 9 threshold, each stopped the way
// a K- or RankTau-bounded query stops it.
func TestEnginePinnedStats(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 8, Domain: 3, NullRate: 0.1, ImpMax: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		k     int
		tau   float64
		stats core.Stats
	}{
		{"ranked/fmax/hash-index", 0, 0,
			core.Stats{Iterations: 120, Emitted: 103, JCCChecks: 9686, TuplesScanned: 9024, ListScans: 4636, PageReads: 9024, IndexProbes: 0, TuplesSkipped: 0, SigHits: 1930, SigRebuilds: 513, MaxResident: 0}},
		{"ranked/K/hash-index", 4, 0,
			core.Stats{Iterations: 4, Emitted: 4, JCCChecks: 453, TuplesScanned: 320, ListScans: 84, PageReads: 320, IndexProbes: 0, TuplesSkipped: 0, SigHits: 179, SigRebuilds: 40, MaxResident: 0}},
		{"ranked/RankTau/hash-index", 0, 9,
			core.Stats{Iterations: 60, Emitted: 59, JCCChecks: 5160, TuplesScanned: 4224, ListScans: 2380, PageReads: 4224, IndexProbes: 0, TuplesSkipped: 0, SigHits: 1504, SigRebuilds: 415, MaxResident: 0}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cur := newRanked(t, db, FMax{}, core.Options{UseIndex: true})
			collect(t, cur, c.k, c.tau)
			if stats := cur.Stats(); stats != c.stats {
				t.Errorf("stats drifted:\n got  %#v\n want %#v", stats, c.stats)
			}
		})
	}
}
