package approx

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/naive"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

func refsByLabel(db *relation.Database) map[string]relation.Ref {
	out := map[string]relation.Ref{}
	db.ForEachRef(func(r relation.Ref) bool { out[db.Label(r)] = r; return true })
	return out
}

// TestExample61 pins the values of Example 6.1 / Fig 4:
// Amin({c1,a2,s2}) = 0.5 and Aprod({c1,a2,s2}) = 0.32.
func TestExample61(t *testing.T) {
	db, sims := workload.TouristApprox()
	u := tupleset.NewUniverse(db)
	refs := refsByLabel(db)
	sim := NewSimTable(sims)

	t1 := u.FromRefs(refs["c1"], refs["a2"], refs["s2"])
	amin := &Amin{S: sim}
	if got := amin.Score(u, t1); got != 0.5 {
		t.Errorf("Amin(T1) = %v, want 0.5", got)
	}
	aprod := &Aprod{S: sim}
	if got := aprod.Score(u, t1); math.Abs(got-0.32) > 1e-12 {
		t.Errorf("Aprod(T1) = %v, want 0.32", got)
	}
	// Singletons: Amin gives prob, Aprod gives 1.
	s2 := u.Singleton(refs["s2"])
	if got := amin.Score(u, s2); got != 0.8 {
		t.Errorf("Amin({s2}) = %v, want prob(s2)=0.8", got)
	}
	if got := aprod.Score(u, s2); got != 1 {
		t.Errorf("Aprod({s2}) = %v, want 1", got)
	}
}

// TestFig4FullDisjunction runs the engine on the annotated tourist
// database of Fig 4: under Amin with the figure's similarities and
// τ = 0.4, the misspelled c1 re-joins a2 and s1, and every result
// scores at least τ.
func TestFig4FullDisjunction(t *testing.T) {
	db, sims := workload.TouristApprox()
	u := tupleset.NewUniverse(db)
	amin := &Amin{S: NewSimTable(sims)}
	results, _, err := core.FullDisjunction(db, qualify(t, amin, 0.4), core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range results {
		names = append(names, s.Format(db))
		if got := amin.Score(u, s); got < 0.4 {
			t.Errorf("%s scores %v, below τ = 0.4", s.Format(db), got)
		}
	}
	found := false
	for _, n := range names {
		found = found || n == "{c1, a2, s1}"
	}
	if !found {
		t.Errorf("expected {c1, a2, s1} among approximate results: %v", names)
	}
}

// TestDisconnectedScoresZero checks acceptability condition (i) on a
// database whose schema has two relations with no shared attribute
// reachable only through a middle relation.
func TestDisconnectedScoresZero(t *testing.T) {
	db, err := workload.Chain(workload.Config{
		Relations: 3, TuplesPerRelation: 2, Domain: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	// R0 and R2 are not adjacent in a 3-chain.
	disc := u.FromRefs(relation.Ref{Rel: 0, Idx: 0}, relation.Ref{Rel: 2, Idx: 0})
	for _, j := range []Join{&Amin{S: ExactSim{}}, &Aprod{S: ExactSim{}}} {
		if got := j.Score(u, disc); got != 0 {
			t.Errorf("%s(disconnected) = %v, want 0", j.Name(), got)
		}
	}
}

// TestExample63 reproduces the maximal-subset split of Example 6.3:
// T = {c1, s1, a2}, tb = s2, τ = 0.4. Amin yields the single subset
// {c1, s2, a2}; Aprod yields {c1, s2} and {s2, a2}.
func TestExample63(t *testing.T) {
	db, sims := workload.TouristApprox()
	u := tupleset.NewUniverse(db)
	refs := refsByLabel(db)
	sim := NewSimTable(sims)
	T := u.FromRefs(refs["c1"], refs["s1"], refs["a2"])
	tb := refs["s2"]
	const tau = 0.4

	amin := &Amin{S: sim}
	gotMin := amin.MaximalSubsets(u, T, tb, tau)
	if len(gotMin) != 1 || gotMin[0].Format(db) != "{c1, a2, s2}" {
		var names []string
		for _, s := range gotMin {
			names = append(names, s.Format(db))
		}
		t.Errorf("Amin maximal subsets = %v, want [{c1, a2, s2}]", names)
	}
	if got := amin.Score(u, gotMin[0]); got != 0.5 {
		t.Errorf("Amin(T') = %v, want 0.5", got)
	}

	aprod := &Aprod{S: sim}
	gotProd := aprod.MaximalSubsets(u, T, tb, tau)
	var names []string
	for _, s := range gotProd {
		names = append(names, s.Format(db))
	}
	sort.Strings(names)
	want := []string{"{a2, s2}", "{c1, s2}"}
	if len(names) != 2 || names[0] != want[0] || names[1] != want[1] {
		t.Errorf("Aprod maximal subsets = %v, want %v", names, want)
	}
	// The full replacement {c1,a2,s2} fails Aprod: 0.32 < 0.4.
	full := u.FromRefs(refs["c1"], refs["a2"], refs["s2"])
	if aprod.Score(u, full) >= tau {
		t.Error("Aprod({c1,a2,s2}) must be below τ=0.4")
	}
}

// TestAcceptability property-checks condition (ii): growing a connected
// set never raises the score, for both Amin and Aprod under random sim
// tables.
func TestAcceptability(t *testing.T) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 4, TuplesPerRelation: 4, Domain: 3, Seed: 31},
		ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	u := tupleset.NewUniverse(db)
	joins := []Join{&Amin{S: LevenshteinSim{}}, &Aprod{S: LevenshteinSim{}}}
	rng := rand.New(rand.NewSource(4))

	f := func(seedIdx int, grow []bool) bool {
		total := db.NumTuples()
		k := ((seedIdx % total) + total) % total
		var start relation.Ref
		i := 0
		db.ForEachRef(func(r relation.Ref) bool {
			if i == k {
				start = r
				return false
			}
			i++
			return true
		})
		s := u.Singleton(start)
		prev := map[string]float64{}
		for _, j := range joins {
			prev[j.Name()] = j.Score(u, s)
		}
		gi := 0
		okAll := true
		db.ForEachRef(func(r relation.Ref) bool {
			take := (gi < len(grow) && grow[gi]) || rng.Intn(3) == 0
			gi++
			if !take || s.HasRelation(int(r.Rel)) || !u.ConnectedWith(s, r) {
				return true
			}
			s = s.Clone().Add(r)
			for _, j := range joins {
				cur := j.Score(u, s)
				if cur > prev[j.Name()]+1e-12 {
					okAll = false
					return false
				}
				prev[j.Name()] = cur
			}
			return true
		})
		return okAll
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestAminMatchesOracle cross-checks APPROXINCREMENTALFD with Amin
// against the brute-force AFD oracle over thresholds and workloads.
func TestAminMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		db, err := workload.DirtyChain(workload.DirtyConfig{
			Config:    workload.Config{Relations: 4, TuplesPerRelation: 4, Domain: 3, NullRate: 0.1, Seed: seed},
			ErrorRate: 0.3, MaxEdits: 2, MinProb: 0.4,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		amin := &Amin{S: LevenshteinSim{}}
		score := func(s *tupleset.Set) float64 { return amin.Score(u, s) }
		for _, tau := range []float64{0.3, 0.5, 0.8, 0.95} {
			got, _, err := core.FullDisjunction(db, qualify(t, amin, tau), core.Options{UseIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			want := naive.ApproxFullDisjunction(db, score, tau)
			gotStr := make([]string, 0, len(got))
			for _, s := range got {
				gotStr = append(gotStr, s.Format(db))
			}
			wantStr := make([]string, 0, len(want))
			for _, s := range want {
				wantStr = append(wantStr, s.Format(db))
			}
			sort.Strings(gotStr)
			sort.Strings(wantStr)
			if len(gotStr) != len(wantStr) {
				t.Fatalf("seed %d τ=%v: got %d results %v, oracle %d %v",
					seed, tau, len(gotStr), gotStr, len(wantStr), wantStr)
			}
			for i := range wantStr {
				if gotStr[i] != wantStr[i] {
					t.Fatalf("seed %d τ=%v mismatch:\n got  %v\n want %v", seed, tau, gotStr, wantStr)
				}
			}
		}
	}
}

// TestAprodMatchesOracle does the same for Aprod (via the generic
// maximal-subset fallback).
func TestAprodMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		db, err := workload.DirtyChain(workload.DirtyConfig{
			Config:    workload.Config{Relations: 3, TuplesPerRelation: 4, Domain: 3, Seed: seed},
			ErrorRate: 0.3, MaxEdits: 1, MinProb: 0.6,
		})
		if err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		aprod := &Aprod{S: LevenshteinSim{}}
		score := func(s *tupleset.Set) float64 { return aprod.Score(u, s) }
		for _, tau := range []float64{0.5, 0.8} {
			got, _, err := core.FullDisjunction(db, qualify(t, aprod, tau), core.Options{UseIndex: true})
			if err != nil {
				t.Fatal(err)
			}
			want := naive.ApproxFullDisjunction(db, score, tau)
			if len(got) != len(want) {
				t.Fatalf("seed %d τ=%v: got %d results, oracle %d", seed, tau, len(got), len(want))
			}
			wantKeys := map[string]bool{}
			for _, s := range want {
				wantKeys[s.Key()] = true
			}
			for _, s := range got {
				if !wantKeys[s.Key()] {
					t.Errorf("seed %d τ=%v: spurious result %s", seed, tau, s.Format(db))
				}
			}
		}
	}
}

// TestExactSimDegeneratesToFD: with ExactSim and unit probabilities the
// approximate full disjunction equals the exact one for every τ.
func TestExactSimDegeneratesToFD(t *testing.T) {
	db := workload.Tourist()
	amin := &Amin{S: ExactSim{}}
	for _, tau := range []float64{0.2, 0.7, 1.0} {
		got, _, err := core.FullDisjunction(db, qualify(t, amin, tau), core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := core.FullDisjunction(db, core.JCC, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("τ=%v: approx %d results, exact %d", tau, len(got), len(want))
		}
		wantKeys := map[string]bool{}
		for _, s := range want {
			wantKeys[s.Key()] = true
		}
		for _, s := range got {
			if !wantKeys[s.Key()] {
				t.Errorf("τ=%v: unexpected %s", tau, s.Format(db))
			}
		}
	}
}

// TestThresholdMonotonicity: lowering τ can only grow the covered JCC
// sets; output size is monotone in the number of qualifying sets.
func TestThresholdMonotonicity(t *testing.T) {
	db, err := workload.DirtyChain(workload.DirtyConfig{
		Config:    workload.Config{Relations: 4, TuplesPerRelation: 5, Domain: 3, Seed: 12},
		ErrorRate: 0.4, MaxEdits: 2, MinProb: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	amin := &Amin{S: LevenshteinSim{}}
	u := tupleset.NewUniverse(db)
	prevCovered := -1
	for _, tau := range []float64{0.95, 0.8, 0.6, 0.4, 0.2} {
		out, _, err := core.FullDisjunction(db, qualify(t, amin, tau), core.Options{UseIndex: true})
		if err != nil {
			t.Fatal(err)
		}
		// Count qualifying sets via the oracle enumeration.
		covered := len(naive.EnumerateConnected(u, func(s *tupleset.Set) bool {
			return amin.Score(u, s) >= tau
		}))
		if prevCovered >= 0 && covered < prevCovered {
			t.Errorf("τ=%v: qualifying sets shrank from %d to %d", tau, prevCovered, covered)
		}
		prevCovered = covered
		// Every result must meet the threshold and be maximal.
		for _, s := range out {
			if amin.Score(u, s) < tau {
				t.Errorf("τ=%v: result %s below threshold", tau, s.Format(db))
			}
		}
		for i, a := range out {
			for j, b := range out {
				if i != j && b.ContainsAll(a) {
					t.Errorf("τ=%v: %s ⊆ %s", tau, a.Format(db), b.Format(db))
				}
			}
		}
	}
}

// qualify is Qualify for a join and threshold the test knows valid.
func qualify(t testing.TB, a Join, tau float64) core.Predicate {
	t.Helper()
	p, err := Qualify(a, tau)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestEnumeratorValidation(t *testing.T) {
	db := workload.Tourist()
	u := tupleset.NewUniverse(db)
	amin := &Amin{S: ExactSim{}}
	p := qualify(t, amin, 0.5)
	if _, err := core.NewEnumerator(u, p, -1, core.Options{UseIndex: true}); err == nil {
		t.Error("negative seed accepted")
	}
	if _, err := core.NewEnumerator(u, p, 9, core.Options{UseIndex: true}); err == nil {
		t.Error("out-of-range seed accepted")
	}
	if _, err := Qualify(nil, 0.5); err == nil {
		t.Error("nil join accepted")
	}
	if _, err := Qualify(amin, 0); err == nil {
		t.Error("zero τ accepted")
	}
	if _, err := Qualify(amin, 1.5); err == nil {
		t.Error("τ>1 accepted")
	}
	if !amin.EfficientlyComputable() {
		t.Error("Amin must report efficient computability (Prop 6.5)")
	}
	if (&Aprod{S: ExactSim{}}).EfficientlyComputable() {
		t.Error("Aprod must not claim efficient computability")
	}
}

func TestLevenshtein(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"abc", "", 3},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"Canada", "Cannada", 1},
		{"same", "same", 0},
		{"abc", "cba", 2},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
	// Symmetry property.
	f := func(a, b string) bool { return Levenshtein(a, b) == Levenshtein(b, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Triangle-ish sanity: distance ≤ max(len).
	g := func(a, b string) bool {
		d := Levenshtein(a, b)
		m := len(a)
		if len(b) > m {
			m = len(b)
		}
		return d <= m
	}
	if err := quick.Check(g, nil); err != nil {
		t.Error(err)
	}
}

// levenshteinRef is the straightforward two-row DP that Levenshtein
// must agree with on both sides of its stack-row cutoff.
func levenshteinRef(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j] + 1
			if v := cur[j-1] + 1; v < m {
				m = v
			}
			if v := prev[j-1] + cost; v < m {
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// TestLevenshteinMatchesReference compares Levenshtein with the
// reference DP on random strings of lengths 0–40 over a small alphabet
// (so edits, not just mismatches, decide the distance), covering both
// the stack rows and the heap fallback.
func TestLevenshteinMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	word := func() string {
		b := make([]byte, rng.Intn(41))
		for i := range b {
			b[i] = "abc"[rng.Intn(3)]
		}
		return string(b)
	}
	for i := 0; i < 5000; i++ {
		a, b := word(), word()
		if got, want := Levenshtein(a, b), levenshteinRef(a, b); got != want {
			t.Fatalf("Levenshtein(%q, %q) = %d, reference %d", a, b, got, want)
		}
	}
}

// TestLevenshteinNoAllocs asserts that strings below the stack cutoff
// are compared without allocating.
func TestLevenshteinNoAllocs(t *testing.T) {
	a, b := "value_03_misspelled_country_x", "valeu_30_misspeled_cuontry_y"
	if allocs := testing.AllocsPerRun(100, func() { Levenshtein(a, b) }); allocs != 0 {
		t.Fatalf("Levenshtein on %d/%d-byte strings allocated %.0f times, want 0", len(a), len(b), allocs)
	}
}

func TestLevenshteinSimMisspelledCountry(t *testing.T) {
	db, _ := workload.TouristApprox() // c1.Country = "Cannada"
	refs := refsByLabel(db)
	sim := LevenshteinSim{}
	// c1 vs a1 share Country: Cannada vs Canada -> 1 - 1/7 ≈ 0.857.
	got := sim.Sim(db, refs["c1"], refs["a1"])
	if math.Abs(got-(1-1.0/7)) > 1e-9 {
		t.Errorf("sim(c1,a1) = %v, want %v", got, 1-1.0/7)
	}
	// a2 vs s2 share Country (match) and City (⊥ in s2): min = 0.
	if got := sim.Sim(db, refs["a2"], refs["s2"]); got != 0 {
		t.Errorf("sim(a2,s2) = %v, want 0 (null City)", got)
	}
	// c2 vs s3: exact matches on Country: 1.
	if got := sim.Sim(db, refs["c2"], refs["s3"]); got != 1 {
		t.Errorf("sim(c2,s3) = %v, want 1", got)
	}
}

func TestSimTableFallback(t *testing.T) {
	db, sims := workload.TouristApprox()
	refs := refsByLabel(db)
	table := NewSimTable(sims)
	// Table entry, both orientations.
	if table.Sim(db, refs["c1"], refs["a2"]) != 0.8 || table.Sim(db, refs["a2"], refs["c1"]) != 0.8 {
		t.Error("table lookup not symmetric")
	}
	// Fallback to exact: c2/s3 join consistent -> 1.
	if table.Sim(db, refs["c2"], refs["s3"]) != 1 {
		t.Error("fallback should be exact-match similarity")
	}
	// Fallback negative: c2/s1 disagree on Country -> 0.
	if table.Sim(db, refs["c2"], refs["s1"]) != 0 {
		t.Error("fallback should reject inconsistent pairs")
	}
}
