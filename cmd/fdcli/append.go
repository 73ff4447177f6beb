package main

import (
	"fmt"
	"io"
	"os"
	"strings"

	fd "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
)

// runAppend is the -append mode: compute the base full disjunction,
// extend the named relation with the CSV file's rows, enumerate only
// the batch-anchored delta, and patch the base list instead of
// recomputing it. Output is the maintained result list in the usual
// format; stderr gets a one-line maintenance summary (batch size,
// delta size, subsumed results, rolled fingerprint) so the incremental
// path is observable from the command line. Both runs use the hash and
// join indexes, the one configuration fd.Open runs.
func runAppend(db *fd.Database, spec string, stdout, stderr io.Writer) error {
	name, path, ok := strings.Cut(spec, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("-append wants relation=file.csv, got %q", spec)
	}
	relIdx, ok := db.RelationIndex(name)
	if !ok {
		return fmt.Errorf("-append: no relation %q in the database", name)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	batch, err := fd.ReadCSV(name, f)
	f.Close()
	if err != nil {
		return err
	}
	if old, got := db.Relation(relIdx).Schema(), batch.Schema(); !old.Equal(got) {
		return fmt.Errorf("-append: %s has schema %s, relation %q has %s", path, got, name, old)
	}
	tuples := make([]relation.Tuple, batch.Len())
	for i := range tuples {
		tuples[i] = *batch.Tuple(i)
	}

	opts := core.Options{UseIndex: true, UseJoinIndex: true}
	base, _, err := core.FullDisjunction(db, opts)
	if err != nil {
		return err
	}
	oldFP := db.Fingerprint()
	ext, d, err := delta.Append(db, relIdx, tuples, opts)
	if err != nil {
		return err
	}
	results, removed := d.Patch(base)
	fmt.Fprintf(stderr, "append: %s += %d tuples; delta %d, subsumed %d, |FD| %d -> %d; fingerprint %016x -> %016x\n",
		name, len(tuples), len(d.Added), removed, len(base), len(results), oldFP, ext.Fingerprint())

	attrs, rows := fd.PadAll(ext, results)
	header := fmt.Sprintf("%-24s", "tuple set")
	for _, a := range attrs {
		header += fmt.Sprintf(" %-12s", a)
	}
	fmt.Fprintln(stdout, header)
	for i, t := range results {
		line := fmt.Sprintf("%-24s", fd.Format(ext, t))
		for _, v := range rows[i].Values {
			line += fmt.Sprintf(" %-12s", v)
		}
		fmt.Fprintln(stdout, line)
	}
	return nil
}
