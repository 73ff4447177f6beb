// Command fdgen emits synthetic workloads as CSV files, one per
// relation, in the format accepted by fdcli and fd.ReadCSV — or, with
// -snapshot, as one binary columnar snapshot (the format of
// fd.WriteSnapshot) that fdcli and fdserve load without re-parsing or
// re-encoding anything.
//
// Usage:
//
//	fdgen -shape chain -n 4 -m 16 -domain 4 -out /tmp/wl
//	fdgen -shape dirty -n 3 -m 10 -error 0.3 -out /tmp/dirty
//	fdgen -shape chain -n 4 -m 1000 -snapshot /tmp/big.fdb
//
// Shapes: chain, star, cycle, clique, random, dirty (misspelled chain
// for approximate joins). With -snapshot, CSVs are written only when
// -out is also given explicitly.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "fdgen: %v\n", err)
		os.Exit(1)
	}
}

// run executes the generator against args, reporting written files to
// stdout. Separated from main for testability.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("fdgen", flag.ContinueOnError)
	var (
		shape    = fs.String("shape", "chain", "workload shape: chain, star, cycle, clique, random, dirty")
		n        = fs.Int("n", 4, "number of relations")
		m        = fs.Int("m", 16, "tuples per relation")
		domain   = fs.Int("domain", 4, "distinct join values")
		nullRate = fs.Float64("nulls", 0.1, "null probability on join attributes")
		impMax   = fs.Float64("imp", 1, "importances drawn from [1, imp]")
		errRate  = fs.Float64("error", 0.3, "dirty shape: misspelling probability")
		edgeProb = fs.Float64("edges", 0.3, "random shape: extra edge probability")
		seed     = fs.Int64("seed", 1, "generator seed")
		out      = fs.String("out", ".", "output directory")
		snapshot = fs.String("snapshot", "", "write the workload as one binary snapshot file instead of CSVs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	outSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "out" {
			outSet = true
		}
	})

	cfg := workload.Config{
		Relations:         *n,
		TuplesPerRelation: *m,
		Domain:            *domain,
		NullRate:          *nullRate,
		ImpMax:            *impMax,
		Seed:              *seed,
	}
	db, err := workload.Generate(*shape, cfg, *edgeProb, *errRate)
	if err != nil {
		return err
	}

	if *snapshot != "" {
		if err := fd.SaveSnapshot(db, *snapshot); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (snapshot, %d relations, %d tuples, fingerprint %016x)\n",
			*snapshot, db.NumRelations(), db.NumTuples(), db.Fingerprint())
		if !outSet {
			return nil
		}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	for i := 0; i < db.NumRelations(); i++ {
		rel := db.Relation(i)
		path := filepath.Join(*out, rel.Name()+".csv")
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := relation.WriteCSV(rel, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s (%d tuples)\n", path, rel.Len())
	}
	return nil
}
