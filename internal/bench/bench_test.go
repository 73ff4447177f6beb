package bench

import (
	"context"
	"slices"
	"strings"
	"testing"

	fd "repro"
	"repro/internal/core"
)

// The fast, deterministic experiments run as golden smoke tests; the
// scaling experiments (E4–E11) are exercised via cmd/fdbench and the
// root benchmarks because their runtimes are benchmark-scale.

func TestE1GoldenTable2(t *testing.T) {
	table, err := E1Tourist()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("E1 produced %d rows, want 6", len(table.Rows))
	}
	wantSets := []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}", "{c3, a3}"}
	for i, row := range table.Rows {
		if row[0] != wantSets[i] {
			t.Errorf("row %d = %s, want %s", i, row[0], wantSets[i])
		}
	}
	md := table.Markdown()
	if !strings.Contains(md, "| {c1, a2, s1} | London | diverse | Canada | Ramada | Air Show | 3 |") {
		t.Errorf("markdown rendering broken:\n%s", md)
	}
}

func TestE2GoldenTable3(t *testing.T) {
	table, err := E2Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(table.Rows) != 6 {
		t.Fatalf("E2 produced %d iterations, want 6", len(table.Rows))
	}
	// Iteration 1 column of Table 3.
	if table.Rows[0][2] != "{c1, a2, s1}; {c1, s2}; {c2}; {c3}" {
		t.Errorf("iteration 1 Incomplete = %s", table.Rows[0][2])
	}
	// Final Complete holds all six results.
	last := table.Rows[5][3]
	if !strings.Contains(last, "{c3, a3}") || strings.Count(last, "{") != 6 {
		t.Errorf("final Complete = %s", last)
	}
}

func TestE3GoldenApprox(t *testing.T) {
	table, err := E3ApproxExample()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"Amin({c1,a2,s2})":  "0.50",
		"Aprod({c1,a2,s2})": "0.32",
	}
	for _, row := range table.Rows {
		if w, ok := want[row[0]]; ok && row[2] != w {
			t.Errorf("%s = %s, want %s", row[0], row[2], w)
		}
	}
	// The Aprod split must contain both subsets.
	found := false
	for _, row := range table.Rows {
		if strings.HasPrefix(row[0], "Aprod maximal") {
			found = true
			if !strings.Contains(row[2], "{c1, s2}") || !strings.Contains(row[2], "{a2, s2}") {
				t.Errorf("Aprod split = %s", row[2])
			}
		}
	}
	if !found {
		t.Error("Aprod maximal-subset row missing")
	}
}

func TestRegistryComplete(t *testing.T) {
	ids := IDs()
	if len(ids) != 13 {
		t.Fatalf("registry has %d experiments, want 13: %v", len(ids), ids)
	}
	if ids[0] != "E1" || ids[9] != "E10" || ids[10] != "E11" || ids[11] != "E12" || ids[12] != "E13" {
		t.Errorf("ordering wrong: %v", ids)
	}
	for _, id := range ids {
		exp := Registry()[id]
		if exp.Run == nil {
			t.Errorf("experiment %s missing", id)
		}
		// The four experiments with a committed BENCH_*.json record.
		if want := slices.Contains([]string{"E6", "E9", "E12", "E13"}, id); exp.Records != want {
			t.Errorf("experiment %s: Records = %v, want %v", id, exp.Records, want)
		}
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	tab := &Table{
		ID: "X", Title: "t",
		Header: []string{"|FD|"},
		Rows:   [][]string{{"a|b"}},
	}
	md := tab.Markdown()
	if !strings.Contains(md, `\|FD\|`) || !strings.Contains(md, `a\|b`) {
		t.Errorf("pipes not escaped:\n%s", md)
	}
}

// TestGatedRungsMeasureOpen ties the counter-gated rungs to the served
// path: the E6 "ranked fmax top-10" rung and the E13 "approx τ 0.8"
// join-index rung, drained under core.Serving(), report the Stats, the
// work-unit delay and the result sequence of an fd.Open drain of the
// equivalent Query at Workers 1.
func TestGatedRungsMeasureOpen(t *testing.T) {
	rung := func(rungs []familyRung, name string) familyRung {
		for _, r := range rungs {
			if r.name == name {
				return r
			}
		}
		t.Fatalf("no rung %q", name)
		return familyRung{}
	}
	for _, c := range []struct {
		rung familyRung
		q    fd.Query
	}{
		{rung(rankedRungs(), "ranked fmax top-10"), fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 10}},
		{rung(approxRungs(), "approx τ 0.8"), fd.Query{Mode: fd.ModeApprox, Sim: "levenshtein", Tau: 0.8}},
	} {
		db, err := c.rung.shape.build(1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drain(db, c.rung.open(db, core.Serving()), c.rung.k, true)
		if err != nil {
			t.Fatalf("%s: %v", c.rung.name, err)
		}
		c.q.Options.Workers = 1
		want, err := drain(db, func() (fd.Results, error) { return fd.Open(context.Background(), db, c.q) }, 0, true)
		if err != nil {
			t.Fatalf("%s: fd.Open: %v", c.rung.name, err)
		}
		if len(got.sets) == 0 {
			t.Fatalf("%s: no results", c.rung.name)
		}
		if got.stats != want.stats {
			t.Errorf("%s: stats differ:\n rung    %+v\n fd.Open %+v", c.rung.name, got.stats, want.stats)
		}
		if got.delayWork != want.delayWork {
			t.Errorf("%s: delay_work_max %d, fd.Open %d", c.rung.name, got.delayWork, want.delayWork)
		}
		keys := func(d drained) []string {
			out := make([]string, len(d.sets))
			for i, s := range d.sets {
				out[i] = s.Key()
			}
			return out
		}
		if !slices.Equal(keys(got), keys(want)) || !slices.Equal(got.ranks, want.ranks) {
			t.Errorf("%s: result sequence differs from fd.Open's (%d vs %d results)", c.rung.name, len(got.sets), len(want.sets))
		}
	}
}
