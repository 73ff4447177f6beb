// Command fdbench runs the experiment suite E1–E13 that reproduces the
// paper's tables, worked examples and complexity claims, printing
// markdown tables (the source of EXPERIMENTS.md).
//
// Usage:
//
//	fdbench                       # run everything
//	fdbench -e E4,E5              # run selected experiments
//	fdbench -list                 # list experiment ids and titles
//	fdbench -e E9 -json out.json  # also write machine-readable records
//
// -json writes a {"records": [...]} document with one trajectory record
// per selected experiment that supports structured output (wall-clock,
// core.Stats counters, allocation deltas). Committing the file as
// BENCH_<workload>.json keeps the performance history diffable across
// PRs.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exps      = flag.String("e", "", "comma-separated experiment ids (default: all)")
		list      = flag.Bool("list", false, "list experiments and exit")
		jsonPath  = flag.String("json", "", "write machine-readable trajectory records of the selected experiments to this file")
		appendSel = flag.Bool("append", false, "run the append-maintenance benchmark (delta vs rebuild per append batch); shorthand for -e E12 -json BENCH_append.json")
	)
	flag.Parse()

	registry := bench.Registry()
	if *list {
		for _, id := range bench.IDs() {
			fmt.Println(id)
		}
		return
	}

	ids := bench.IDs()
	if *exps != "" {
		ids = strings.Split(*exps, ",")
	}
	if *appendSel {
		ids = []string{"E12"}
		if *jsonPath == "" {
			*jsonPath = "BENCH_append.json"
		}
	}
	trajectories := bench.Trajectories()
	var records []*bench.Record
	for _, id := range ids {
		id = strings.TrimSpace(id)
		exp, ok := registry[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "fdbench: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		// With -json, experiments that support structured output run
		// once through the combined runner, which renders the table
		// and the record from the same measurements.
		if traj, ok := trajectories[id]; ok && *jsonPath != "" {
			table, rec, err := traj()
			if err != nil {
				fmt.Fprintf(os.Stderr, "fdbench: %s failed: %v\n", id, err)
				os.Exit(1)
			}
			fmt.Println(table.Markdown())
			records = append(records, rec)
			continue
		}
		table, err := exp()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table.Markdown())
	}
	if *jsonPath == "" {
		return
	}
	if len(records) == 0 {
		supported := make([]string, 0, len(trajectories))
		for id := range trajectories {
			supported = append(supported, id)
		}
		sort.Strings(supported)
		fmt.Fprintf(os.Stderr, "fdbench: none of the selected experiments has a trajectory (supported: %s)\n",
			strings.Join(supported, ", "))
		os.Exit(2)
	}
	f, err := os.Create(*jsonPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
		os.Exit(1)
	}
	if err := bench.WriteRecords(f, records); err != nil {
		f.Close()
		fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "fdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "fdbench: wrote %d trajectory record(s) to %s\n", len(records), *jsonPath)
}
