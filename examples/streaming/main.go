// Command streaming demonstrates the incremental (PINC) behaviour that
// distinguishes INCREMENTALFD from its predecessors: on a database
// whose full disjunction has thousands of members, the first answers
// arrive after a tiny fraction of the total work, and the consumer can
// stop whenever it has seen enough.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	fd "repro"
)

func main() {
	db, err := buildDatabase(5, 24)
	if err != nil {
		log.Fatal(err)
	}

	ctx := context.Background()

	// First pass: materialise everything, for reference.
	start := time.Now()
	all, stats, err := drain(ctx, db, fd.Query{})
	if err != nil {
		log.Fatal(err)
	}
	fullTime := time.Since(start)
	fmt.Printf("full disjunction: %d tuple sets in %v (%s)\n\n", len(all), fullTime, stats)

	// Second pass: a K-bounded query stops after k answers — the
	// PINC guarantee makes the prefix cheap.
	for _, k := range []int{1, 10, 100} {
		start = time.Now()
		if _, _, err := drain(ctx, db, fd.Query{K: k}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("first %4d answers: %10v  (%.1f%% of full-run time)\n",
			k, time.Since(start), 100*float64(time.Since(start))/float64(fullTime))
	}

	fmt.Println()
	fmt.Println("first five answers:")
	first, _, err := drain(ctx, db, fd.Query{K: 5})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range first {
		fmt.Printf("  %s\n", fd.Format(db, r.Set))
	}
}

// drain opens q against db and pulls the cursor dry.
func drain(ctx context.Context, db *fd.Database, q fd.Query) ([]fd.Result, fd.Stats, error) {
	rs, err := fd.Open(ctx, db, q)
	if err != nil {
		return nil, fd.Stats{}, err
	}
	defer rs.Close()
	var out []fd.Result
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		out = append(out, r)
	}
	return out, rs.Stats(), rs.Err()
}

// buildDatabase constructs a chain of n relations R0(J0,P0), R1(J0,J1,P1),
// ... with m tuples each, joining on shared J attributes; join values
// repeat so the full disjunction is large.
func buildDatabase(n, m int) (*fd.Database, error) {
	rels := make([]*fd.Relation, n)
	for i := 0; i < n; i++ {
		attrs := []fd.Attribute{fd.Attribute(fmt.Sprintf("P%d", i))}
		if i > 0 {
			attrs = append(attrs, fd.Attribute(fmt.Sprintf("J%d", i-1)))
		}
		if i < n-1 {
			attrs = append(attrs, fd.Attribute(fmt.Sprintf("J%d", i)))
		}
		rel, err := fd.NewRelation(fmt.Sprintf("R%d", i), fd.MustSchema(attrs...))
		if err != nil {
			return nil, err
		}
		for t := 0; t < m; t++ {
			vals := map[fd.Attribute]fd.Value{
				fd.Attribute(fmt.Sprintf("P%d", i)): fd.V(fmt.Sprintf("p%d_%d", i, t)),
			}
			if i > 0 {
				vals[fd.Attribute(fmt.Sprintf("J%d", i-1))] = fd.V(fmt.Sprintf("v%d", t%12))
			}
			if i < n-1 {
				vals[fd.Attribute(fmt.Sprintf("J%d", i))] = fd.V(fmt.Sprintf("v%d", (t+i)%12))
			}
			rel.MustAppend(fmt.Sprintf("R%d_t%d", i, t), vals)
		}
		rels[i] = rel
	}
	return fd.NewDatabase(rels...)
}
