// Command fdbench runs the experiment suite E1–E13 that reproduces the
// paper's tables, worked examples and complexity claims, printing
// markdown tables (the source of EXPERIMENTS.md).
//
// Usage:
//
//	fdbench                       # run everything
//	fdbench -e E4,E5              # run selected experiments
//	fdbench -list                 # list experiment ids
//	fdbench -e E9 -json out.json  # also write machine-readable records
//
// -json writes a {"records": [...]} document with one trajectory record
// per selected experiment that supports structured output (wall-clock,
// core.Stats counters, allocation deltas). Committing the file as
// BENCH_<workload>.json keeps the performance history diffable across
// PRs; `fdbench -e E12 -json BENCH_append.json` regenerates the
// append-maintenance record.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"repro/internal/bench"
)

func main() {
	var (
		exps     = flag.String("e", "", "comma-separated experiment ids (default: all)")
		list     = flag.Bool("list", false, "list experiments and exit")
		jsonPath = flag.String("json", "", "write machine-readable trajectory records of the selected experiments to this file")
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
	recording := false
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		exp, ok := registry[ids[i]]
		if !ok {
			fmt.Fprintf(os.Stderr, "fdbench: unknown experiment %q (use -list)\n", ids[i])
			os.Exit(2)
		}
		recording = recording || exp.Records
	}
	if *jsonPath != "" && !recording {
		var supported []string
		for id, exp := range registry {
			if exp.Records {
				supported = append(supported, id)
			}
		}
		slices.Sort(supported)
		fmt.Fprintf(os.Stderr, "fdbench: none of the selected experiments has a trajectory (supported: %s)\n",
			strings.Join(supported, ", "))
		os.Exit(2)
	}

	var records []*bench.Record
	for _, id := range ids {
		table, rec, err := registry[id].Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "fdbench: %s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(table.Markdown())
		if rec != nil {
			records = append(records, rec)
		}
	}
	if *jsonPath == "" {
		return
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
