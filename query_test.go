package fd

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
)

// randomQuery draws a valid query uniformly over the spec space.
func randomQuery(rng *rand.Rand) Query {
	modes := []Mode{ModeExact, ModeRanked, ModeApprox, ModeApproxRanked}
	ranks := []string{"fmax", "pairsum", "triple"}
	sims := []string{"", "levenshtein", "exact"}
	q := Query{
		Mode:    modes[rng.Intn(len(modes))],
		K:       rng.Intn(4),
		Options: QueryOptions{Workers: rng.Intn(3)},
	}
	if q.Mode == ModeRanked || q.Mode == ModeApproxRanked {
		q.Rank = ranks[rng.Intn(len(ranks))]
		if rng.Intn(2) == 0 {
			q.RankTau = float64(1+rng.Intn(5)) / 2
		}
	}
	if q.Mode == ModeApprox || q.Mode == ModeApproxRanked {
		q.Tau = float64(1+rng.Intn(10)) / 10
		q.Sim = sims[rng.Intn(len(sims))]
	}
	return q
}

// TestPropertyQueryJSONRoundTrip is the spec-stability property of the
// acceptance criteria: every valid query survives a JSON round trip
// unchanged, and round-tripped queries keep their canonical key — the
// wire format can never split or merge cache entries.
func TestPropertyQueryJSONRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		q := randomQuery(rng)
		if err := q.Validate(); err != nil {
			t.Fatalf("randomQuery produced invalid %+v: %v", q, err)
		}
		data, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("marshal %+v: %v", q, err)
		}
		var back Query
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if !reflect.DeepEqual(q, back) {
			t.Fatalf("round trip changed the query:\n  in  %+v\n  out %+v\n  via %s", q, back, data)
		}
		if q.Canonical() != back.Canonical() {
			t.Fatalf("round trip changed the canonical key: %q vs %q", q.Canonical(), back.Canonical())
		}
	}
}

// TestQueryCanonicalNormalisation checks that spellings of the same
// computation share one canonical key, and that result-affecting
// differences split keys.
func TestQueryCanonicalNormalisation(t *testing.T) {
	same := [][2]Query{
		{{}, {Mode: ModeExact}},
		{{Mode: ModeApprox, Tau: 0.5}, {Mode: ModeApprox, Tau: 0.5, Sim: "levenshtein"}},
		{{Mode: ModeExact, Options: QueryOptions{TaskObserver: func(TaskSpan) {}}}, {Mode: ModeExact}},
		// Workers is meaningless on paths that always run sequentially,
		// so it must not fragment their cache keys.
		{{Mode: ModeRanked, Rank: "fmax", Options: QueryOptions{Workers: 4}}, {Mode: ModeRanked, Rank: "fmax"}},
		{{Mode: ModeApproxRanked, Tau: 0.5, Rank: "fmax", Options: QueryOptions{Workers: 4}},
			{Mode: ModeApproxRanked, Tau: 0.5, Rank: "fmax"}},
		// The deprecated index fields are ignored, so spellings that
		// differ only in them share one key.
		{{Mode: ModeExact, Options: QueryOptions{UseIndex: true, UseJoinIndex: true, Workers: 1}},
			{Mode: ModeExact, Options: QueryOptions{Workers: 1}}},
		{{Mode: ModeApprox, Tau: 0.5, Options: QueryOptions{UseJoinIndex: true}},
			{Mode: ModeApprox, Tau: 0.5, Options: QueryOptions{UseIndex: true}}},
	}
	for _, pair := range same {
		if pair[0].Canonical() != pair[1].Canonical() {
			t.Errorf("expected equal canonical keys:\n  %+v -> %q\n  %+v -> %q",
				pair[0], pair[0].Canonical(), pair[1], pair[1].Canonical())
		}
	}
	distinct := []Query{
		{Mode: ModeExact},
		{Mode: ModeExact, K: 3},
		{Mode: ModeRanked, Rank: "fmax"},
		{Mode: ModeRanked, Rank: "pairsum"},
		{Mode: ModeRanked, Rank: "fmax", RankTau: 2},
		{Mode: ModeApprox, Tau: 0.5},
		{Mode: ModeApprox, Tau: 0.7},
		{Mode: ModeApprox, Tau: 0.5, Sim: "exact"},
		{Mode: ModeApproxRanked, Tau: 0.5, Rank: "fmax"},
		// Worker counts change arrival order, so they split keys on the
		// parallel-capable paths.
		{Mode: ModeExact, Options: QueryOptions{Workers: 2}},
		{Mode: ModeExact, Options: QueryOptions{Workers: 4}},
		{Mode: ModeApprox, Tau: 0.5, Options: QueryOptions{Workers: 4}},
	}
	seen := make(map[string]Query, len(distinct))
	for _, q := range distinct {
		key := q.Canonical()
		if prev, ok := seen[key]; ok {
			t.Errorf("queries %+v and %+v share canonical key %q", prev, q, key)
		}
		seen[key] = q
	}
}

// TestQueryValidate covers the rejection surface.
func TestQueryValidate(t *testing.T) {
	bad := []Query{
		{Mode: "nope"},
		{Mode: ModeRanked},                                    // no rank function
		{Mode: ModeRanked, Rank: "fsum"},                      // not c-determined
		{Mode: ModeApprox},                                    // no tau
		{Mode: ModeApprox, Tau: 1.5},                          // tau out of range
		{Mode: ModeApprox, Tau: 0.5, Sim: "nope"},             // unknown sim
		{Mode: ModeApproxRanked, Tau: 0.5},                    // no rank function
		{Mode: ModeExact, Rank: "fmax"},                       // rank on exact
		{Mode: ModeExact, RankTau: 1},                         // rank threshold on exact
		{Mode: ModeExact, Tau: 0.5},                           // approx tau on exact
		{Mode: ModeExact, Sim: "exact"},                       // sim on exact
		{Mode: ModeRanked, Rank: "fmax", Tau: 0.5},            // approx tau on ranked
		{Mode: ModeApprox, Tau: 0.5, RankTau: 1},              // rank threshold on approx
		{Mode: ModeExact, K: -1},                              // negative k
		{Mode: ModeExact, Options: QueryOptions{Workers: -1}}, // negative workers
	}
	for _, q := range bad {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", q)
		}
	}
	good := []Query{
		{},
		{Mode: ModeExact, K: 5},
		{Mode: ModeRanked, Rank: "triple", RankTau: 0.5},
		{Mode: ModeApprox, Tau: 1},
		{Mode: ModeApproxRanked, Tau: 0.25, Rank: "fmax", K: 2, Sim: "exact"},
		{Mode: ModeExact, Options: QueryOptions{Workers: 8}},
		{Mode: ModeApprox, Tau: 0.5, Options: QueryOptions{Workers: 2}},
		// Workers on a ranked query is accepted and ignored (the Fig 3
		// queue order is inherently serial), not rejected.
		{Mode: ModeRanked, Rank: "fmax", K: 2, Options: QueryOptions{Workers: 8}},
	}
	for _, q := range good {
		if err := q.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", q, err)
		}
	}
}

// TestQueryCanonicalForm pins the key layout: cache entries written
// under one version must never be read back under another.
func TestQueryCanonicalForm(t *testing.T) {
	got := Query{}.Canonical()
	want := "fdq4|mode=exact|rank=|k=0|tau=0|ranktau=0|sim=|wrk=0"
	if got != want {
		t.Errorf("Canonical() = %q, want %q", got, want)
	}
}

// TestQueryValidateRefusesNaN: a NaN threshold passes every ordered
// comparison, so Validate must refuse it explicitly — under an approx
// τ of NaN no set would qualify, and a NaN family would not even equal
// itself.
func TestQueryValidateRefusesNaN(t *testing.T) {
	nan := math.NaN()
	for _, q := range []Query{
		{Mode: ModeApprox, Tau: nan},
		{Mode: ModeApproxRanked, Tau: nan, Rank: "fmax"},
		{Mode: ModeRanked, Rank: "fmax", RankTau: nan},
	} {
		if err := q.Validate(); err == nil {
			t.Errorf("Validate accepted %+v", q)
		}
	}
}

// TestQueryFamily: the family is the predicate alone — a ranked mode
// shares its unranked twin's, the similarity default is resolved, and
// K, RankTau and Workers do not enter it.
func TestQueryFamily(t *testing.T) {
	lev := Family{Sim: "levenshtein", Tau: 0.5}
	for _, c := range []struct {
		q    Query
		want Family
	}{
		{Query{}, Family{}},
		{Query{Mode: ModeRanked, Rank: "fmax", K: 3}, Family{}},
		{Query{Mode: ModeApprox, Tau: 0.5}, lev},
		{Query{Mode: ModeApproxRanked, Tau: 0.5, Sim: "levenshtein", Rank: "pairsum", RankTau: 1}, lev},
		{Query{Mode: ModeApprox, Tau: 0.5, Sim: "exact", Options: QueryOptions{Workers: 3}}, Family{Sim: "exact", Tau: 0.5}},
	} {
		if got := c.q.Family(); got != c.want {
			t.Errorf("%+v: family %+v, want %+v", c.q, got, c.want)
		}
	}
	if (Query{}).Family().Predicate() != core.JCC {
		t.Error("the exact family's predicate is not core.JCC")
	}
	if p := (Family{Sim: "nope", Tau: 0.5}).Predicate(); p != nil {
		t.Errorf("unknown similarity: predicate %v, want nil", p)
	}
}
