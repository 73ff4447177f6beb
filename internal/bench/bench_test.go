package bench

import (
	"strings"
	"testing"
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
		if Registry()[id] == nil {
			t.Errorf("experiment %s missing", id)
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
