package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	fd "repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// writeTouristCSVs materialises the tourist relations as CSV files in a
// temp directory and returns their paths.
func writeTouristCSVs(t *testing.T) []string {
	t.Helper()
	db := workload.TouristRanked()
	dir := t.TempDir()
	var paths []string
	for i := 0; i < db.NumRelations(); i++ {
		rel := db.Relation(i)
		path := filepath.Join(dir, rel.Name()+".csv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := fd.WriteCSV(rel, f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	return paths
}

func TestRunFullDisjunction(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-stats"}, paths...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"{c1, a1}", "{c1, a2, s1}", "{c1, s2}", "{c2, s3}", "{c2, s4}", "{c3, a3}"} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %s:\n%s", want, text)
		}
	}
	if !strings.Contains(errBuf.String(), "iters=") {
		t.Error("-stats produced no counters")
	}
}

func TestRunTopK(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out bytes.Buffer
	if err := run(context.Background(), append([]string{"-rank", "fmax", "-k", "2"}, paths...), &out, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 3 { // header + 2 results
		t.Fatalf("expected 3 lines, got %d:\n%s", len(lines), out.String())
	}
	if !strings.Contains(lines[1], "{c1, a1}") || !strings.Contains(lines[1], "4") {
		t.Errorf("top answer wrong: %s", lines[1])
	}
}

func TestRunThreshold(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out bytes.Buffer
	if err := run(context.Background(), append([]string{"-rank", "fmax", "-tau", "3"}, paths...), &out, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 4 { // header + 3 results with fmax ≥ 3
		t.Fatalf("expected 4 lines, got %d:\n%s", len(lines), out.String())
	}
}

func TestRunApprox(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out bytes.Buffer
	if err := run(context.Background(), append([]string{"-approx", "0.9"}, paths...), &out, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "{c1, a1}") {
		t.Errorf("approximate output missing exact matches:\n%s", out.String())
	}
}

func TestRunSnapshotSaveAndLoad(t *testing.T) {
	paths := writeTouristCSVs(t)
	snap := filepath.Join(t.TempDir(), "tourist.fdb")

	// CSV run with -save: same results, plus a snapshot on disk.
	var csvOut, errBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-save", snap}, paths...), &csvOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBuf.String(), "saved snapshot") {
		t.Errorf("no save diagnostic: %s", errBuf.String())
	}

	// Snapshot run: identical output without touching any CSV.
	var snapOut bytes.Buffer
	if err := run(context.Background(), []string{"-snapshot", snap}, &snapOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	if csvOut.String() != snapOut.String() {
		t.Errorf("snapshot run output differs from CSV run:\n%s\nvs\n%s", csvOut.String(), snapOut.String())
	}

	// Ranked and approximate modes work off the snapshot too.
	var topOut bytes.Buffer
	if err := run(context.Background(), []string{"-snapshot", snap, "-rank", "fmax", "-k", "2"}, &topOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(topOut.String(), "{c1, a1}") {
		t.Errorf("ranked snapshot run missing top answer:\n%s", topOut.String())
	}
}

func TestRunSnapshotErrors(t *testing.T) {
	var out bytes.Buffer
	paths := writeTouristCSVs(t)
	if err := run(context.Background(), append([]string{"-snapshot", "/nonexistent.fdb"}, paths...), &out, &out); err == nil {
		t.Error("-snapshot combined with CSV args accepted")
	}
	if err := run(context.Background(), []string{"-snapshot", "/nonexistent.fdb"}, &out, &out); err == nil {
		t.Error("missing snapshot file accepted")
	}
	// A CSV is not a snapshot: the magic check must reject it.
	if err := run(context.Background(), []string{"-snapshot", paths[0]}, &out, &out); err == nil {
		t.Error("CSV file accepted as snapshot")
	}
}

func TestRunErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run(context.Background(), nil, &out, &out); err == nil {
		t.Error("no arguments accepted")
	}
	if err := run(context.Background(), []string{"/nonexistent/file.csv"}, &out, &out); err == nil {
		t.Error("missing file accepted")
	}
	paths := writeTouristCSVs(t)
	if err := run(context.Background(), append([]string{"-rank", "bogus", "-k", "1"}, paths...), &out, &out); err == nil {
		t.Error("unknown ranking function accepted")
	}
	if err := run(context.Background(), append([]string{"-rank", "fmax"}, paths...), &out, &out); err == nil {
		t.Error("-rank without -k or -tau accepted")
	}
	// The simulated page size, the index switches and the §7
	// initialisation strategy are fdbench E9 knobs, not query flags.
	for _, flags := range [][]string{{"-block", "4"}, {"-index=false"}, {"-joinindex"}, {"-strategy", "seeded"}} {
		if err := run(context.Background(), append(flags, paths...), &out, &out); err == nil {
			t.Errorf("%s accepted", flags[0])
		}
	}
}

// TestRunAppendRejectsQueryFlags: -append maintains the exact, unbounded
// full disjunction, so every query flag it would silently drop is an
// error naming the flag, while a plain -append run succeeds.
func TestRunAppendRejectsQueryFlags(t *testing.T) {
	paths := writeTouristCSVs(t)
	name := strings.TrimSuffix(filepath.Base(paths[0]), ".csv")
	appendArgs := []string{"-append", name + "=" + paths[0]}
	var out bytes.Buffer
	if err := run(context.Background(), append(appendArgs, paths...), &out, &out); err != nil {
		t.Fatalf("plain -append: %v", err)
	}
	for _, flags := range [][]string{
		{"-k", "2"},
		{"-tau", "3"},
		{"-sim", "exact"},
		{"-workers", "2"},
		{"-explain"},
		{"-approx", "0.8"},
		{"-rank", "fmax"},
	} {
		args := append(append(append([]string{}, flags...), appendArgs...), paths...)
		err := run(context.Background(), args, &out, &out)
		if err == nil || !strings.Contains(err.Error(), flags[0]) {
			t.Errorf("-append with %v: err = %v, want a rejection naming %s", flags, err, flags[0])
		}
	}
}

// TestRunAppend: the result list -append maintains prints, as a sorted
// multiset of body lines, what a fresh Workers-1 run prints over the
// CSVs with the batch rows appended.
func TestRunAppend(t *testing.T) {
	paths := writeTouristCSVs(t)
	name := strings.TrimSuffix(filepath.Base(paths[0]), ".csv")
	base, err := os.ReadFile(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(string(base), "\n")
	if header != "#label,#imp,#prob,Climate,Country" {
		t.Fatalf("%s: header %q; the batch rows below assume the Climates schema", name, header)
	}
	// One row joins existing UK tuples, one joins nothing.
	rows := "c4,1,1,rainy,UK\nc5,1,1,mild,France\n"
	batch := filepath.Join(t.TempDir(), "batch.csv")
	if err := os.WriteFile(batch, []byte(header+"\n"+rows), 0o644); err != nil {
		t.Fatal(err)
	}
	grown := append([]string{filepath.Join(t.TempDir(), name+".csv")}, paths[1:]...)
	if err := os.WriteFile(grown[0], append(base, rows...), 0o644); err != nil {
		t.Fatal(err)
	}

	body := func(args ...string) []string {
		t.Helper()
		var out, errBuf bytes.Buffer
		if err := run(context.Background(), args, &out, &errBuf); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
		return slices.Sorted(slices.Values(lines[1:]))
	}
	got := body(append([]string{"-append", name + "=" + batch}, paths...)...)
	want := body(append([]string{"-workers", "1"}, grown...)...)
	if !slices.Equal(got, want) {
		t.Fatalf("-append printed\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if !strings.Contains(strings.Join(got, "\n"), "c4") {
		t.Errorf("the appended rows appear in no result:\n%s", strings.Join(got, "\n"))
	}
}

// TestRunTrace: -trace prints the span-tree JSON to stderr with the
// load/open/enumerate phases, and the span stats sum to the run's
// final counters (open carries construction, enumerate the delta).
func TestRunTrace(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-trace"}, paths...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var doc obs.TraceData
	if err := json.Unmarshal(errBuf.Bytes(), &doc); err != nil {
		t.Fatalf("-trace stderr is not a trace document: %v\n%s", err, errBuf.String())
	}
	if doc.ID != "fdcli" {
		t.Errorf("trace id %q", doc.ID)
	}
	for _, want := range []string{"load", "open", "enumerate"} {
		if len(doc.FindAll(want)) != 1 {
			t.Errorf("trace missing %q span:\n%s", want, errBuf.String())
		}
	}
	sum := map[string]int64{}
	for _, name := range []string{"open", "enumerate"} {
		for k, v := range doc.SumStats(name) {
			sum[k] += v
		}
	}
	if sum["emitted"] != 6 { // |FD| of the tourist database
		t.Errorf("span stats sum emitted=%d, want 6", sum["emitted"])
	}
}

func TestRunExplain(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-explain", "-workers", "4"}, paths...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	var plan fd.Plan
	if err := json.Unmarshal(out.Bytes(), &plan); err != nil {
		t.Fatalf("-explain stdout is not a plan document: %v\n%s", err, out.String())
	}
	if len(plan.Database.Relations) != 3 {
		t.Errorf("plan lists %d relations, want 3", len(plan.Database.Relations))
	}
	if plan.Strategy.Execution != "parallel" || len(plan.Strategy.Tasks) == 0 {
		t.Errorf("workers=4 strategy %+v, want parallel with tasks", plan.Strategy)
	}
	// -explain plans without executing: no result rows on stdout.
	if strings.Contains(out.String(), "tuple set") {
		t.Error("-explain also executed the query")
	}

	var seqOut bytes.Buffer
	if err := run(context.Background(), append([]string{"-explain", "-rank", "fmax", "-k", "2"}, paths...), &seqOut, &errBuf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(seqOut.Bytes(), &plan); err != nil {
		t.Fatal(err)
	}
	if plan.Strategy.Execution != "sequential" || plan.Strategy.Reason == "" {
		t.Errorf("ranked strategy %+v, want sequential with reason", plan.Strategy)
	}
}

func TestRunProgress(t *testing.T) {
	paths := writeTouristCSVs(t)
	var out, errBuf bytes.Buffer
	if err := run(context.Background(), append([]string{"-progress"}, paths...), &out, &errBuf); err != nil {
		t.Fatal(err)
	}
	// The run is far shorter than a ticker period, but the final line
	// always reports the completed state.
	text := errBuf.String()
	if !strings.Contains(text, "progress: phase=done results=6") {
		t.Errorf("-progress final line missing:\n%s", text)
	}
	if !strings.Contains(out.String(), "{c1, a1}") {
		t.Errorf("-progress suppressed results:\n%s", out.String())
	}
}

// TestRunRankOverflow: a rank that overflows to +Inf (PairSum of two
// #imp 1e308 tuples) fails the run, so fdcli exits 1 naming the set.
func TestRunRankOverflow(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for _, label := range []string{"a1", "b1"} {
		path := filepath.Join(dir, "R"+label+".csv")
		if err := os.WriteFile(path, []byte("#label,#imp,A\n"+label+",1e308,x\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	var out bytes.Buffer
	err := run(context.Background(), append([]string{"-rank", "pairsum", "-k", "3"}, paths...), &out, &out)
	var re *fd.RankError
	if !errors.As(err, &re) || re.Set != "{a1, b1}" {
		t.Fatalf("run: %v, want a RankError naming {a1, b1}", err)
	}
	if strings.Contains(out.String(), "{a1, b1}") {
		t.Errorf("the overflowing result was printed:\n%s", out.String())
	}
}
