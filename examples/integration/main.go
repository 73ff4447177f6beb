// Command integration demonstrates approximate full disjunctions
// (Section 6 of the paper): two product catalogues and a review site
// are integrated although one source misspells names and wrapped tuples
// carry extraction probabilities. Amin with Levenshtein similarity
// recovers matches that exact joins miss, with the threshold τ trading
// recall against confidence.
package main

import (
	"context"
	"fmt"
	"log"
	"slices"
	"strings"

	fd "repro"
)

func main() {
	// Source 1: a clean catalogue.
	catalog := fd.MustRelation("Catalog", fd.MustSchema("Product", "Brand"))
	add(catalog, "k1", 1.0, map[fd.Attribute]fd.Value{
		"Product": fd.V("ThinkPad X1"), "Brand": fd.V("Lenovo")})
	add(catalog, "k2", 1.0, map[fd.Attribute]fd.Value{
		"Product": fd.V("MacBook Air"), "Brand": fd.V("Apple")})
	add(catalog, "k3", 0.9, map[fd.Attribute]fd.Value{
		"Product": fd.V("ZenBook 14"), "Brand": fd.V("Asus")})

	// Source 2: prices wrapped from a Web shop — names get mangled.
	prices := fd.MustRelation("Prices", fd.MustSchema("Product", "Price"))
	add(prices, "p1", 0.95, map[fd.Attribute]fd.Value{
		"Product": fd.V("ThinkPad X1"), "Price": fd.V("1499")})
	add(prices, "p2", 0.8, map[fd.Attribute]fd.Value{
		"Product": fd.V("MacBok Air"), "Price": fd.V("1099")}) // misspelled!
	add(prices, "p3", 0.9, map[fd.Attribute]fd.Value{
		"Product": fd.V("Zenbook 14"), "Price": fd.V("999")}) // case slip

	// Source 3: reviews, also imperfect.
	reviews := fd.MustRelation("Reviews", fd.MustSchema("Product", "Score"))
	add(reviews, "r1", 0.85, map[fd.Attribute]fd.Value{
		"Product": fd.V("ThinkPadX1"), "Score": fd.V("8.5")}) // missing space
	add(reviews, "r2", 1.0, map[fd.Attribute]fd.Value{
		"Product": fd.V("MacBook Air"), "Score": fd.V("9.0")})

	db, err := fd.NewDatabase(catalog, prices, reviews)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	// Exact full disjunction: the misspelled tuples stay unmatched.
	exact, err := drain(ctx, db, fd.Query{Mode: fd.ModeExact})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Exact full disjunction (misspellings break the joins):")
	printSets(db, exact)

	// Approximate full disjunction under Amin + Levenshtein — the same
	// query fdserve accepts as {"mode":"approx","tau":0.9}.
	for _, tau := range []float64{0.9, 0.75, 0.5} {
		results, err := drain(ctx, db, fd.Query{Mode: fd.ModeApprox, Tau: tau})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nApproximate full disjunction, τ = %.2f (%d results):\n", tau, len(results))
		printSets(db, results)
	}

	// Approx-ranked: the most probable integrations first, Sections 5
	// and 6 combined in one declarative spec.
	fmt.Println("\nTop-3 approximate integrations by fmax, τ = 0.75:")
	rs, err := fd.Open(ctx, db, fd.Query{Mode: fd.ModeApproxRanked, Tau: 0.75, Rank: "fmax", K: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer rs.Close()
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		fmt.Printf("  %-14s rank %.2f\n", fd.Format(db, r.Set), r.Rank)
	}
	if err := rs.Err(); err != nil {
		log.Fatal(err)
	}
}

// drain opens q against db and collects the tuple sets, sorted by
// their notation: the default Workers 0 runs the parallel executor on a
// multi-core machine, whose arrival order varies from run to run.
func drain(ctx context.Context, db *fd.Database, q fd.Query) ([]*fd.TupleSet, error) {
	rs, err := fd.Open(ctx, db, q)
	if err != nil {
		return nil, err
	}
	defer rs.Close()
	var out []*fd.TupleSet
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		out = append(out, r.Set)
	}
	slices.SortFunc(out, func(a, b *fd.TupleSet) int {
		return strings.Compare(fd.Format(db, a), fd.Format(db, b))
	})
	return out, rs.Err()
}

func printSets(db *fd.Database, sets []*fd.TupleSet) {
	attrs, rows := fd.PadAll(db, sets)
	for i, t := range sets {
		line := fmt.Sprintf("  %-14s", fd.Format(db, t))
		for j, v := range rows[i].Values {
			line += fmt.Sprintf(" %s=%-12s", attrs[j], v)
		}
		fmt.Println(line)
	}
}

func add(rel *fd.Relation, label string, prob float64, vals map[fd.Attribute]fd.Value) {
	rel.MustAppend(label, vals)
	rel.MutateTuple(rel.Len()-1, func(t *fd.Tuple) { t.Prob = prob })
}
