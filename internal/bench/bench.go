// Package bench is the experiment harness behind EXPERIMENTS.md and
// cmd/fdbench: each experiment E1–E13 regenerates one artifact of the
// paper (a table, a worked example, or a complexity/behaviour claim)
// and reports it as a formatted table. Wall-clock numbers are
// laptop-scale; the claims under test are shapes (who wins, how costs
// grow), which the instrumentation counters capture robustly.
package bench

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	fd "repro"
	"repro/internal/relation"
)

// runQuery drains a declarative query against db through fd.Open — the
// same execution path the service and the CLIs use — so benchmarks of
// query-shaped workloads measure the production API, not a private
// re-encoding of it.
func runQuery(db *relation.Database, q fd.Query) ([]fd.Result, fd.Stats, error) {
	rs, err := fd.Open(context.Background(), db, q)
	if err != nil {
		return nil, fd.Stats{}, err
	}
	defer rs.Close()
	var out []fd.Result
	for {
		r, ok := rs.Next()
		if !ok {
			break
		}
		out = append(out, r)
	}
	return out, rs.Stats(), rs.Err()
}

// Table is one experiment's result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// Markdown renders the table as GitHub-flavoured markdown. Pipes inside
// cells (e.g. the |FD| notation) are escaped so columns stay aligned.
func (t *Table) Markdown() string {
	esc := func(cells []string) []string {
		out := make([]string, len(cells))
		for i, c := range cells {
			out[i] = strings.ReplaceAll(c, "|", "\\|")
		}
		return out
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s\n\n", t.ID, t.Title)
	fmt.Fprintf(&b, "| %s |\n", strings.Join(esc(t.Header), " | "))
	seps := make([]string, len(t.Header))
	for i := range seps {
		seps[i] = "---"
	}
	fmt.Fprintf(&b, "| %s |\n", strings.Join(seps, " | "))
	for _, row := range t.Rows {
		fmt.Fprintf(&b, "| %s |\n", strings.Join(esc(row), " | "))
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "\n%s\n", n)
	}
	return b.String()
}

// Experiment is one registered experiment.
type Experiment struct {
	// Run measures the experiment once, rendering its markdown table
	// and, when Records, the trajectory record of the same run (so the
	// two artifacts never disagree); the record is nil otherwise.
	Run func() (*Table, *Record, error)
	// Records reports whether Run returns a trajectory record.
	Records bool
}

// Registry maps experiment ids to their runners.
func Registry() map[string]Experiment {
	return map[string]Experiment{
		"E1":  tableOnly(E1Tourist),
		"E2":  tableOnly(E2Trace),
		"E3":  tableOnly(E3ApproxExample),
		"E4":  tableOnly(E4TotalRuntime),
		"E5":  tableOnly(E5TimeToK),
		"E6":  {E6TopK, true},
		"E7":  tableOnly(E7Hardness),
		"E8":  tableOnly(E8ApproxSweep),
		"E9":  {E9Ablations, true},
		"E10": tableOnly(E10Outerjoin),
		"E11": tableOnly(E11Threshold),
		"E12": {E12Append, true},
		"E13": {E13ApproxIndex, true},
	}
}

// tableOnly registers a runner without a structured form.
func tableOnly(run func() (*Table, error)) Experiment {
	return Experiment{Run: func() (*Table, *Record, error) {
		t, err := run()
		return t, nil, err
	}}
}

// IDs returns the experiment ids in order.
func IDs() []string {
	ids := make([]string, 0)
	for id := range Registry() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool {
		// E1 < E2 < ... < E10 < E11 (numeric suffix).
		var a, b int
		fmt.Sscanf(ids[i], "E%d", &a)
		fmt.Sscanf(ids[j], "E%d", &b)
		return a < b
	})
	return ids
}

// msec formats a duration in milliseconds with three significant
// decimals.
func msec(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Microseconds())/1000)
}

// timeIt measures fn.
func timeIt(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}
