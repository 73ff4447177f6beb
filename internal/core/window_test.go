package core

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// TestWindowPartition is the window ≡ ownership property: across
// random chain, star and clique databases with UseIndex and
// UseJoinIndex each on and off, for every pass and random cut points,
// each anchor window emits exactly the full pass's results anchored in
// it, once each; the windows of a partition together give FDi(R); and
// windows outside the seed relation are rejected.
func TestWindowPartition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	shapes := []struct {
		name string
		gen  func(workload.Config) (*relation.Database, error)
	}{
		{"chain", workload.Chain},
		{"star", workload.Star},
		{"clique", workload.Clique},
	}
	for iter := 0; iter < 3; iter++ {
		for _, shape := range shapes {
			cfg := workload.Config{Relations: 3 + rng.Intn(2), TuplesPerRelation: 6 + rng.Intn(10),
				Domain: 3 + rng.Intn(2), NullRate: 0.1, Seed: rng.Int63()}
			if shape.name == "clique" {
				cfg.TuplesPerRelation = 3 + rng.Intn(4)
			}
			db, err := shape.gen(cfg)
			if err != nil {
				t.Fatal(err)
			}
			u := tupleset.NewUniverse(db)
			for _, opts := range []Options{{}, {UseIndex: true}, {UseJoinIndex: true}, {UseIndex: true, UseJoinIndex: true}} {
				for pass := 0; pass < db.NumRelations(); pass++ {
					full, err := NewEnumerator(u, JCC, pass, opts)
					if err != nil {
						t.Fatal(err)
					}
					checkWindows(t, shape.name, db, pass, full.All(), rng, func(lo, hi int) ([]*tupleset.Set, error) {
						e, err := NewWindowEnumerator(u, JCC, pass, lo, hi, opts)
						if err != nil {
							return nil, err
						}
						return e.All(), nil
					})
				}
			}
		}
	}
}

// checkWindows cuts relation pass of db at random points and checks
// each window run against the full pass's results, then the partition
// against the whole pass, then the out-of-range windows.
func checkWindows(t *testing.T, label string, db *relation.Database, pass int, full []*tupleset.Set,
	rng *rand.Rand, run func(lo, hi int) ([]*tupleset.Set, error)) {
	t.Helper()
	n := db.Relation(pass).Len()
	anchor := make(map[string]int, len(full))
	for _, s := range full {
		m, ok := s.Member(pass)
		if !ok {
			t.Fatalf("%s pass %d: full result %s lacks a seed tuple", label, pass, s.Format(db))
		}
		anchor[s.Key()] = int(m.Idx)
	}
	cuts := []int{0, n}
	for k := rng.Intn(4); k > 0; k-- {
		cuts = append(cuts, rng.Intn(n+1))
	}
	sort.Ints(cuts)
	seen := make(map[string]bool, len(full))
	for i := 0; i+1 < len(cuts); i++ {
		lo, hi := cuts[i], cuts[i+1]
		got, err := run(lo, hi)
		if err != nil {
			t.Fatalf("%s pass %d window [%d,%d): %v", label, pass, lo, hi, err)
		}
		for _, s := range got {
			a, ok := anchor[s.Key()]
			switch {
			case !ok:
				t.Fatalf("%s pass %d window [%d,%d): %s is not a result of the full pass", label, pass, lo, hi, s.Format(db))
			case a < lo || a >= hi:
				t.Fatalf("%s pass %d window [%d,%d): %s is anchored at %d", label, pass, lo, hi, s.Format(db), a)
			case seen[s.Key()]:
				t.Fatalf("%s pass %d window [%d,%d): %s emitted twice", label, pass, lo, hi, s.Format(db))
			}
			seen[s.Key()] = true
		}
		want := 0
		for _, a := range anchor {
			if a >= lo && a < hi {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("%s pass %d window [%d,%d): %d results, the full pass anchors %d there", label, pass, lo, hi, len(got), want)
		}
	}
	if len(seen) != len(full) {
		t.Fatalf("%s pass %d: windows %v give %d results, the full pass %d", label, pass, cuts, len(seen), len(full))
	}
	for _, w := range [][2]int{{-1, n}, {0, n + 1}, {n, n - 1}} {
		if _, err := run(w[0], w[1]); err == nil {
			t.Fatalf("%s pass %d: window [%d,%d) accepted", label, pass, w[0], w[1])
		}
	}
}
