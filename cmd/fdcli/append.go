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
	"repro/internal/tupleset"
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

	// The maintained list is the zero Query's: the exact family,
	// unbounded and unranked, so its family's delta patches it.
	p, opts := fd.Query{}.Family().Predicate(), core.Serving()
	base, _, err := core.FullDisjunction(db, p, opts)
	if err != nil {
		return err
	}
	oldFP, firstNew := db.Fingerprint(), db.Relation(relIdx).Len()
	ext, err := db.Extend(relIdx, tuples)
	if err != nil {
		return err
	}
	d, err := delta.Compute(tupleset.NewUniverse(ext), p, relIdx, firstNew, opts)
	if err != nil {
		return err
	}
	results, removed := delta.Patch(d, base, delta.Bare, delta.Bare)
	fmt.Fprintf(stderr, "append: %s += %d tuples; delta %d, subsumed %d, |FD| %d -> %d; fingerprint %016x -> %016x\n",
		name, len(tuples), len(d.Added), removed, len(base), len(results), oldFP, ext.Fingerprint())

	printTable(stdout, ext, results, nil)
	return nil
}
