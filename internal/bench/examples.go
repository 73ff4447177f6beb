package bench

import (
	"fmt"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// E1Tourist regenerates Table 2: the full disjunction of the tourist
// relations, with the padded-tuple rendering.
func E1Tourist() (*Table, error) {
	db := workload.Tourist()
	results, stats, err := core.FullDisjunction(db, core.JCC, core.Options{})
	if err != nil {
		return nil, err
	}
	u := tupleset.NewUniverse(db)
	attrs := u.AllAttributes()
	t := &Table{
		ID:     "E1",
		Title:  "Table 2 — FD(Climates, Accommodations, Sites)",
		Header: []string{"tuple set"},
	}
	for _, a := range attrs {
		t.Header = append(t.Header, string(a))
	}
	tupleset.SortSets(db, results)
	for _, s := range results {
		row := []string{s.Format(db)}
		for _, v := range u.PadOver(s, attrs).Values {
			row = append(row, v.String())
		}
		t.Rows = append(t.Rows, row)
	}
	t.Notes = append(t.Notes, fmt.Sprintf(
		"%d tuple sets; paper's Table 2 lists the same six. Stats: %s.", len(results), stats))
	return t, nil
}

// E2Trace regenerates Table 3: the Incomplete/Complete lists after each
// iteration of INCREMENTALFD({Climates,Accommodations,Sites}, 1).
func E2Trace() (*Table, error) {
	db := workload.Tourist()
	u := tupleset.NewUniverse(db)
	t := &Table{
		ID:     "E2",
		Title:  "Table 3 — trace of IncrementalFD(R, 1)",
		Header: []string{"iteration", "printed", "Incomplete", "Complete"},
	}
	e, err := core.NewEnumerator(u, core.JCC, 0, core.Options{})
	if err != nil {
		return nil, err
	}
	for iter := 1; ; iter++ {
		printed, ok := e.Next()
		if !ok {
			break
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", iter),
			printed.Format(db),
			formatSetList(db, e.Incomplete()),
			formatSetList(db, e.Complete().Sets()),
		})
	}
	t.Notes = append(t.Notes,
		"Matches Table 3 of the paper column for column (list discipline: pop front, new sets grouped at the front).")
	return t, nil
}

func joinList(parts []string) string {
	if len(parts) == 0 {
		return "∅"
	}
	out := parts[0]
	for _, p := range parts[1:] {
		out += "; " + p
	}
	return out
}

// E3ApproxExample regenerates the Fig 4 / Example 6.1 / Example 6.3
// values: Amin and Aprod scores and the maximal-subset split at τ=0.4.
func E3ApproxExample() (*Table, error) {
	db, sims := workload.TouristApprox()
	u := tupleset.NewUniverse(db)
	sim := approx.NewSimTable(sims)
	amin := &approx.Amin{S: sim}
	aprod := &approx.Aprod{S: sim}

	var c1, a2, s1, s2 = refOf(db, "c1"), refOf(db, "a2"), refOf(db, "s1"), refOf(db, "s2")

	t1 := u.FromRefs(c1, a2, s2)
	T := u.FromRefs(c1, s1, a2)

	t := &Table{
		ID:     "E3",
		Title:  "Fig 4 / Examples 6.1 & 6.3 — approximate join functions",
		Header: []string{"quantity", "paper", "measured"},
	}
	t.Rows = append(t.Rows,
		[]string{"Amin({c1,a2,s2})", "0.5", fmt.Sprintf("%.2f", amin.Score(u, t1))},
		[]string{"Aprod({c1,a2,s2})", "0.32", fmt.Sprintf("%.2f", aprod.Score(u, t1))},
	)
	gotMin := amin.MaximalSubsets(u, T, s2, 0.4)
	gotProd := aprod.MaximalSubsets(u, T, s2, 0.4)
	t.Rows = append(t.Rows,
		[]string{"Amin maximal subsets (T={c1,s1,a2}, tb=s2, τ=0.4)", "{c1,s2,a2}", formatSetList(db, gotMin)},
		[]string{"Aprod maximal subsets (same)", "{c1,s2} and {s2,a2}", formatSetList(db, gotProd)},
	)
	return t, nil
}

func formatSetList(db *relation.Database, sets []*tupleset.Set) string {
	names := make([]string, len(sets))
	for i, s := range sets {
		names[i] = s.Format(db)
	}
	return joinList(names)
}

// refOf resolves a tuple label to its Ref; it panics on unknown labels
// (the tourist labels are fixed).
func refOf(db *relation.Database, label string) relation.Ref {
	var out relation.Ref
	found := false
	db.ForEachRef(func(ref relation.Ref) bool {
		if db.Label(ref) == label {
			out = ref
			found = true
			return false
		}
		return true
	})
	if !found {
		panic("bench: unknown tuple label " + label)
	}
	return out
}
