package fd_test

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	fd "repro"
	"repro/internal/workload"
)

// explainDB builds one of the workload shapes used across the Explain
// tests: large enough that parallel layouts have real block splits.
func explainDB(t *testing.T, shape string) *fd.Database {
	t.Helper()
	cfg := workload.Config{
		Relations: 4, TuplesPerRelation: 24, Domain: 4, NullRate: 0.1, ImpMax: 10, Seed: 41}
	var (
		db  *fd.Database
		err error
	)
	switch shape {
	case "chain":
		db, err = workload.Chain(cfg)
	case "star":
		db, err = workload.Star(cfg)
	case "clique":
		cfg.TuplesPerRelation = 6
		db, err = workload.Clique(cfg)
	default:
		t.Fatalf("unknown shape %q", shape)
	}
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestExplainJSONRoundTrip is the serialisation acceptance criterion:
// a plan marshals to JSON and unmarshals back to an identical value.
func TestExplainJSONRoundTrip(t *testing.T) {
	db := explainDB(t, "chain")
	for _, q := range []fd.Query{
		{Mode: fd.ModeExact, Options: fd.QueryOptions{Workers: 4}},
		{Mode: fd.ModeRanked, Rank: "fmax", K: 5},
		{Mode: fd.ModeApprox, Tau: 0.7, Options: fd.QueryOptions{Workers: 4}},
	} {
		plan, err := fd.Explain(db, q)
		if err != nil {
			t.Fatalf("Explain(%+v): %v", q, err)
		}
		doc, err := json.Marshal(plan)
		if err != nil {
			t.Fatal(err)
		}
		var back fd.Plan
		if err := json.Unmarshal(doc, &back); err != nil {
			t.Fatalf("unmarshal plan: %v", err)
		}
		if !reflect.DeepEqual(*plan, back) {
			t.Errorf("mode %s: plan did not survive the JSON round trip:\n%+v\nvs\n%+v",
				q.Mode, *plan, back)
		}
	}
}

// emptyMiddleDB builds a three-relation chain whose middle relation
// has no tuples: the passes of the outer relations block-split at
// eight workers, the empty one contributes no task.
func emptyMiddleDB(t *testing.T) *fd.Database {
	t.Helper()
	r0 := fd.MustRelation("R0", fd.MustSchema("A", "B"))
	r1 := fd.MustRelation("R1", fd.MustSchema("B", "C"))
	r2 := fd.MustRelation("R2", fd.MustSchema("C", "D"))
	for i := 0; i < 20; i++ {
		r0.MustAppend("", map[fd.Attribute]fd.Value{"A": fd.V(fmt.Sprint(i % 4)), "B": fd.V(fmt.Sprint(i % 3))})
		r2.MustAppend("", map[fd.Attribute]fd.Value{"C": fd.V(fmt.Sprint(i % 3)), "D": fd.V(fmt.Sprint(i % 5))})
	}
	return fd.MustDatabase(r0, r1, r2)
}

// TestExplainStrategyPrediction checks the plan's strategy section
// against the execution it predicts, for the exact and approximate
// modes across the three workload shapes and a database with an empty
// relation, and Workers ∈ {1, 4, 8}: a sequential plan carries a
// reason, a parallel plan plans only tasks with seeds, and its task
// list matches — label for label — the spans an actual run reports
// through the TaskObserver.
func TestExplainStrategyPrediction(t *testing.T) {
	exact := []fd.Mode{fd.ModeExact}
	both := []fd.Mode{fd.ModeExact, fd.ModeApprox}
	dbs := []struct {
		name  string
		db    *fd.Database
		modes []fd.Mode
	}{
		// The approximate drains of the 24-tuple chain and star take
		// seconds; the layout under test is the same for both modes.
		{"chain", explainDB(t, "chain"), exact},
		{"star", explainDB(t, "star"), exact},
		{"clique", explainDB(t, "clique"), both},
		{"dirty", dirtyDB(t), both},
		{"empty-middle", emptyMiddleDB(t), both},
	}
	for _, c := range dbs {
		for _, mode := range c.modes {
			for _, workers := range []int{1, 4, 8} {
				checkStrategyPrediction(t, fmt.Sprintf("%s/%s/workers=%d", c.name, mode, workers), c.db,
					fd.Query{Mode: mode, Tau: 0.7, Options: fd.QueryOptions{Workers: workers}})
			}
		}
	}
}

// checkStrategyPrediction checks one plan against one run (see
// TestExplainStrategyPrediction).
func checkStrategyPrediction(t *testing.T, label string, db *fd.Database, q fd.Query) {
	t.Helper()
	if q.Mode == fd.ModeExact {
		q.Tau = 0
	}
	plan, err := fd.Explain(db, q)
	if err != nil {
		t.Fatal(err)
	}
	if q.Options.Workers == 1 {
		if plan.Strategy.Execution != "sequential" || plan.Strategy.Workers != 1 {
			t.Fatalf("%s: strategy %+v, want sequential", label, plan.Strategy)
		}
		if plan.Strategy.Reason == "" {
			t.Errorf("%s: sequential plan gives no reason", label)
		}
		if len(plan.Strategy.Tasks) != 0 {
			t.Errorf("%s: sequential plan lists %d tasks", label, len(plan.Strategy.Tasks))
		}
		return
	}
	if plan.Strategy.Execution != "parallel" {
		t.Fatalf("%s: execution %q, want parallel", label, plan.Strategy.Execution)
	}
	if plan.Strategy.Workers < 2 || plan.Strategy.Workers > q.Options.Workers {
		t.Errorf("%s: effective workers %d outside [2, %d]", label, plan.Strategy.Workers, q.Options.Workers)
	}
	nonEmpty := 0
	for _, rel := range plan.Database.Relations {
		if rel.Tuples > 0 {
			nonEmpty++
		}
	}
	if len(plan.Strategy.Tasks) < nonEmpty {
		t.Errorf("%s: %d tasks for %d non-empty passes", label, len(plan.Strategy.Tasks), nonEmpty)
	}
	seeds := 0
	var planned []string
	for _, task := range plan.Strategy.Tasks {
		if task.Seeds != task.SeedHi-task.SeedLo || task.Seeds <= 0 {
			t.Errorf("%s: task %q has seed range [%d, %d) but Seeds=%d",
				label, task.Label, task.SeedLo, task.SeedHi, task.Seeds)
		}
		seeds += task.Seeds
		planned = append(planned, task.Label)
	}
	if seeds != plan.Database.Tuples {
		t.Errorf("%s: task seed counts sum to %d, want every tuple once (%d)",
			label, seeds, plan.Database.Tuples)
	}

	// The plan is the execution: a real run reports exactly the
	// planned tasks, label for label.
	var mu sync.Mutex
	var ran []string
	run := q
	run.Options.TaskObserver = func(ts fd.TaskSpan) {
		mu.Lock()
		ran = append(ran, ts.Label)
		mu.Unlock()
	}
	rs, err := fd.Open(context.Background(), db, run)
	if err != nil {
		t.Fatal(err)
	}
	for _, ok := rs.Next(); ok; _, ok = rs.Next() {
	}
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	rs.Close()
	sort.Strings(planned)
	sort.Strings(ran)
	if !reflect.DeepEqual(ran, planned) {
		t.Errorf("%s: plan promised tasks %q, execution ran %q", label, planned, ran)
	}
}

// TestExplainSequentialReasons checks the plan explains each forced
// sequential path: ranked modes override a parallel worker request,
// and one worker is reported as such.
func TestExplainSequentialReasons(t *testing.T) {
	db := explainDB(t, "chain")
	cases := []struct {
		name string
		q    fd.Query
		want string
	}{
		{"ranked", fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 3,
			Options: fd.QueryOptions{Workers: 4}}, "serial"},
		{"approx-ranked", fd.Query{Mode: fd.ModeApproxRanked, Rank: "fmax", Tau: 0.7,
			Options: fd.QueryOptions{Workers: 4}}, "serial"},
		{"one-worker", fd.Query{Mode: fd.ModeExact,
			Options: fd.QueryOptions{Workers: 1}}, "one worker"},
	}
	for _, c := range cases {
		plan, err := fd.Explain(db, c.q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if plan.Strategy.Execution != "sequential" {
			t.Errorf("%s: execution %q, want sequential", c.name, plan.Strategy.Execution)
		}
		if !strings.Contains(plan.Strategy.Reason, c.want) {
			t.Errorf("%s: reason %q does not mention %q", c.name, plan.Strategy.Reason, c.want)
		}
	}
}

// TestExplainIndexAndGraph checks the index section reports both
// indexes engaged with posting stats in every mode, under a graded
// similarity too, and the join-graph classification matches the
// workload shape.
func TestExplainIndexAndGraph(t *testing.T) {
	db := explainDB(t, "chain")

	for _, q := range []fd.Query{
		{Mode: fd.ModeExact},
		{Mode: fd.ModeRanked, Rank: "fmax", K: 3},
		// Under levenshtein the candidates are the postings of the
		// τ-similar codes.
		{Mode: fd.ModeApprox, Tau: 0.7},
		{Mode: fd.ModeApprox, Tau: 0.7, Sim: "exact"},
		{Mode: fd.ModeApproxRanked, Tau: 0.7, Rank: "fmax"},
	} {
		plan, err := fd.Explain(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if !plan.Index.HashIndex || !plan.Index.JoinIndex ||
			plan.Index.PostingLists == 0 || plan.Index.PostingEntries == 0 {
			t.Errorf("%+v: index section %+v, want both engaged with posting stats", q, plan.Index)
		}
		if !plan.JoinGraph.Connected || !plan.JoinGraph.Chain || !plan.JoinGraph.Tree {
			t.Errorf("chain workload classified %+v", plan.JoinGraph)
		}
		if len(plan.JoinGraph.Components) != 1 || len(plan.JoinGraph.Components[0]) != db.NumRelations() {
			t.Errorf("chain components %v", plan.JoinGraph.Components)
		}
	}
}

// TestExplainValidates checks invalid specs are rejected before any
// planning happens.
func TestExplainValidates(t *testing.T) {
	db := explainDB(t, "chain")
	if _, err := fd.Explain(db, fd.Query{Mode: "nonsense"}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := fd.Explain(nil, fd.Query{}); err == nil {
		t.Error("nil database accepted")
	}
}
