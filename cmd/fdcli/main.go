// Command fdcli computes full disjunctions of CSV relations through
// the declarative fd.Query API — the same spec fdserve serves over
// HTTP and the library executes via fd.Open.
//
// Each positional argument is a CSV file holding one relation (header
// row of attribute names; optional #label, #imp and #prob metadata
// columns; empty cells or ⊥ are nulls). The relation is named after the
// file's base name.
//
// Modes:
//
//	fdcli a.csv b.csv c.csv               # full disjunction
//	fdcli -k 10 -rank fmax a.csv b.csv    # top-10 under fmax
//	fdcli -rank fmax -tau 3 a.csv b.csv   # all answers ranking ≥ 3
//	fdcli -approx 0.8 a.csv b.csv         # approximate FD, Amin+Levenshtein, τ=0.8
//	fdcli -approx 0.8 -rank fmax -k 5 ... # approx-ranked: top-5 of the approximate FD
//	fdcli -save db.fdb a.csv b.csv        # also save a binary snapshot
//	fdcli -snapshot db.fdb                # query a snapshot (no CSV parsing)
//	fdcli -append b=more.csv a.csv b.csv  # append rows, maintain the FD incrementally
//
// A snapshot (the format of fd.WriteSnapshot, also emitted by
// fdgen -snapshot and fdserve -data) loads without re-parsing or
// re-encoding: the columnar mirror comes straight off disk.
//
// The enumeration honours Ctrl-C: an interrupt cancels the query
// context and the run exits with the context error within one step.
//
// Output is one row per result tuple set: the tuple-set notation
// followed by the padded tuple.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/obs"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "fdcli: %v\n", err)
		os.Exit(1)
	}
}

// run executes the tool against args, writing results to stdout and
// diagnostics to stderr. It is main minus process concerns, so tests
// can drive it directly.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("fdcli", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		k        = fs.Int("k", 0, "return only the first k results (0 = all)")
		rankName = fs.String("rank", "", "rank results: fmax, pairsum or triple (requires -k or -tau)")
		tau      = fs.Float64("tau", 0, "with -rank: threshold variant, return results ranking ≥ tau")
		approxT  = fs.Float64("approx", 0, "approximate FD with Amin at this threshold")
		simName  = fs.String("sim", "", "with -approx: similarity, levenshtein (default) or exact")
		workers  = fs.Int("workers", 0, "parallel enumeration workers: 0 = GOMAXPROCS, 1 = sequential (exact and approx modes; ranked runs sequential)")
		stats    = fs.Bool("stats", false, "print execution counters to stderr")
		trace    = fs.Bool("trace", false, "print the execution trace (span-tree JSON, the GET /queries/{id}/trace schema) to stderr")
		explain  = fs.Bool("explain", false, "print the query plan (the POST /explain schema) to stdout instead of executing")
		progress = fs.Bool("progress", false, "render a live progress line on stderr while draining")
		snapshot = fs.String("snapshot", "", "load the database from a binary snapshot instead of CSV files")
		save     = fs.String("save", "", "write the loaded database to a binary snapshot file")
		appendTo = fs.String("append", "", "relation=file.csv: append the file's rows to that relation and maintain the full disjunction incrementally (extend + delta + patch) instead of recomputing it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// With -trace every step below records a span; without it the nil
	// trace no-ops each call, so the hot path pays one nil check.
	var tr *obs.Trace
	if *trace {
		tr = obs.NewTrace("fdcli", nil)
	}

	var db *fd.Database
	var err error
	loadSpan := tr.Root().Start("load")
	switch {
	case *snapshot != "":
		if fs.NArg() > 0 {
			return fmt.Errorf("give either -snapshot or CSV relations, not both")
		}
		if db, err = fd.LoadSnapshot(*snapshot); err != nil {
			return err
		}
	case fs.NArg() >= 1:
		rels := make([]*fd.Relation, 0, fs.NArg())
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			name := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
			rel, err := fd.ReadCSV(name, f)
			f.Close()
			if err != nil {
				return err
			}
			rels = append(rels, rel)
		}
		if db, err = fd.NewDatabase(rels...); err != nil {
			return err
		}
	default:
		return fmt.Errorf("need at least one CSV relation or -snapshot (see -h)")
	}
	loadSpan.End()

	if *save != "" {
		if err := fd.SaveSnapshot(db, *save); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "saved snapshot %s (fingerprint %016x)\n", *save, db.Fingerprint())
	}

	if *appendTo != "" {
		// The maintained full disjunction is exact, unbounded and
		// sequential: reject the query flags it would otherwise drop.
		var ignored []string
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "k", "rank", "tau", "approx", "sim", "workers", "explain":
				ignored = append(ignored, "-"+f.Name)
			}
		})
		if len(ignored) > 0 {
			return fmt.Errorf("-append maintains the exact full disjunction (drop %s)", strings.Join(ignored, ", "))
		}
		return runAppend(db, *appendTo, stdout, stderr)
	}

	// Flags → the declarative query spec.
	q := fd.Query{K: *k, Options: fd.QueryOptions{Workers: *workers}}
	switch {
	case *approxT > 0 && *rankName != "":
		q.Mode = fd.ModeApproxRanked
		q.Tau, q.Sim = *approxT, *simName
		q.Rank, q.RankTau = *rankName, *tau
	case *approxT > 0:
		q.Mode = fd.ModeApprox
		q.Tau, q.Sim = *approxT, *simName
	case *rankName != "":
		if *k <= 0 && *tau <= 0 {
			return fmt.Errorf("-rank requires -k or -tau")
		}
		q.Mode = fd.ModeRanked
		q.Rank, q.RankTau = *rankName, *tau
	default:
		q.Mode = fd.ModeExact
	}

	if tr != nil {
		// Parallel tasks time themselves on their worker goroutines and
		// report completion spans under the root.
		q.Options.TaskObserver = func(ts fd.TaskSpan) {
			tr.Root().Record("task", ts.Start, ts.End.Sub(ts.Start), ts.Stats.Map(),
				"label", ts.Label)
		}
	}

	if *explain {
		plan, err := fd.Explain(db, q)
		if err != nil {
			return err
		}
		doc, err := json.MarshalIndent(plan, "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "%s\n", doc)
		return nil
	}

	// With -progress the drain loop below keeps prog current; without
	// it the nil progress no-ops each call.
	var prog *obs.Progress
	if *progress {
		prog = &obs.Progress{}
		if w := q.ParallelWorkers(); w > 1 {
			// The parallel path runs the partitioned layout; count its
			// tasks through the observer chain.
			prog.SetTasksTotal(len(core.Layout(db, w)))
			inner := q.Options.TaskObserver
			q.Options.TaskObserver = func(ts fd.TaskSpan) {
				prog.TaskDone()
				if inner != nil {
					inner(ts)
				}
			}
		}
		ticker := time.NewTicker(200 * time.Millisecond)
		done := make(chan struct{})
		defer func() {
			ticker.Stop()
			close(done)
			// One final line so even a sub-tick run shows its totals.
			fmt.Fprintf(stderr, "%s\n", progressLine(prog))
		}()
		go func() {
			for {
				select {
				case <-ticker.C:
					fmt.Fprintf(stderr, "%s\n", progressLine(prog))
				case <-done:
					return
				}
			}
		}()
	}

	prog.SetPhase(obs.PhaseOpen)
	openSpan := tr.Root().Start("open")
	rs, err := fd.Open(ctx, db, q)
	if err != nil {
		return err
	}
	defer rs.Close()
	prog.SetPhase(obs.PhaseEnumerate)
	openSpan.SetStats(rs.Stats().Map())
	openSpan.End()
	last := rs.Stats()

	enumSpan := tr.Root().Start("enumerate")
	var results []*fd.TupleSet
	var ranks []float64
	for {
		r, ok := rs.Next()
		if !ok {
			break
		}
		if prog != nil {
			prog.AddEmitted(1)
			prog.SetScanned(int64(rs.Stats().TuplesScanned))
		}
		results = append(results, r.Set)
		if r.Ranked {
			ranks = append(ranks, r.Rank)
		}
	}
	prog.SetScanned(int64(rs.Stats().TuplesScanned))
	prog.SetPhase(obs.PhaseDone)
	if err := rs.Err(); err != nil {
		return err
	}
	enumSpan.SetStats(rs.Stats().Sub(last).Map())
	enumSpan.End()
	rs.Close()
	tr.Root().End()

	printTable(stdout, db, results, ranks)
	if *stats {
		fmt.Fprintf(stderr, "%s\n", rs.Stats())
	}
	if tr != nil {
		doc, err := json.MarshalIndent(tr.Snapshot(), "", "  ")
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "%s\n", doc)
	}
	return nil
}

// printTable writes results as a padded table: the tuple set, its rank
// when ranks is non-nil (ranked results), and one column per attribute.
func printTable(w io.Writer, db *fd.Database, results []*fd.TupleSet, ranks []float64) {
	attrs, rows := fd.PadAll(db, results)
	header := fmt.Sprintf("%-24s", "tuple set")
	if ranks != nil {
		header += fmt.Sprintf(" %-8s", "rank")
	}
	for _, a := range attrs {
		header += fmt.Sprintf(" %-12s", a)
	}
	fmt.Fprintln(w, header)
	for i, t := range results {
		line := fmt.Sprintf("%-24s", fd.Format(db, t))
		if ranks != nil {
			line += fmt.Sprintf(" %-8.3g", ranks[i])
		}
		for _, v := range rows[i].Values {
			line += fmt.Sprintf(" %-12s", v)
		}
		fmt.Fprintln(w, line)
	}
}

// progressLine renders one -progress status line from a live snapshot.
func progressLine(p *obs.Progress) string {
	d := p.Snapshot()
	line := fmt.Sprintf("progress: phase=%s results=%d scanned=%d",
		d.Phase, d.ResultsEmitted, d.TuplesScanned)
	if d.TasksTotal > 0 {
		line += fmt.Sprintf(" tasks=%d/%d", d.TasksDone, d.TasksTotal)
	}
	return line
}
