package fd_test

import (
	"context"
	"fmt"

	fd "repro"
)

// tourist builds the three relations of the paper's Table 1.
func tourist() *fd.Database {
	climates := fd.MustRelation("Climates", fd.MustSchema("Country", "Climate"))
	climates.MustAppend("c1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "Climate": fd.V("diverse")})
	climates.MustAppend("c2", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "Climate": fd.V("temperate")})
	climates.MustAppend("c3", map[fd.Attribute]fd.Value{"Country": fd.V("Bahamas"), "Climate": fd.V("tropical")})
	acc := fd.MustRelation("Accommodations", fd.MustSchema("Country", "City", "Hotel", "Stars"))
	acc.MustAppend("a1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("Toronto"), "Hotel": fd.V("Plaza"), "Stars": fd.V("4")})
	acc.MustAppend("a2", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("London"), "Hotel": fd.V("Ramada"), "Stars": fd.V("3")})
	acc.MustAppend("a3", map[fd.Attribute]fd.Value{"Country": fd.V("Bahamas"), "City": fd.V("Nassau"), "Hotel": fd.V("Hilton")})
	sites := fd.MustRelation("Sites", fd.MustSchema("Country", "City", "Site"))
	sites.MustAppend("s1", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "City": fd.V("London"), "Site": fd.V("Air Show")})
	sites.MustAppend("s2", map[fd.Attribute]fd.Value{"Country": fd.V("Canada"), "Site": fd.V("Mount Logan")})
	sites.MustAppend("s3", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "City": fd.V("London"), "Site": fd.V("Buckingham")})
	sites.MustAppend("s4", map[fd.Attribute]fd.Value{"Country": fd.V("UK"), "City": fd.V("London"), "Site": fd.V("Hyde Park")})
	return fd.MustDatabase(climates, acc, sites)
}

// ExampleOpen reproduces Table 2 of the paper: the full disjunction
// of the tourist relations of Table 1.
func ExampleOpen() {
	db := tourist()
	rs, err := fd.Open(context.Background(), db, fd.Query{Mode: fd.ModeExact})
	if err != nil {
		panic(err)
	}
	defer rs.Close()
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		fmt.Println(fd.Format(db, r.Set))
	}
	// Unordered output:
	// {c1, a1}
	// {c1, a2, s1}
	// {c1, s2}
	// {c2, s3}
	// {c2, s4}
	// {c3, a3}
}

// ExampleOpen_stream shows incremental consumption: take the first two
// answers and stop — the rest of the full disjunction is never
// computed (the PINC property, Corollary 4.11 of the paper).
func ExampleOpen_stream() {
	db := tourist()
	// K bounds the query: the cursor stops, and releases its state,
	// at the second answer.
	rs, err := fd.Open(context.Background(), db, fd.Query{K: 2})
	if err != nil {
		panic(err)
	}
	defer rs.Close()
	count := 0
	for _, ok := rs.Next(); ok; _, ok = rs.Next() {
		count++
	}
	fmt.Println(count, "answers consumed")
	// Output:
	// 2 answers consumed
}

// ExampleOpen_topK ranks destinations by hotel stars (imp) and returns
// the best answer only.
func ExampleOpen_topK() {
	db := tourist()
	// imp defaults to 1; promote the four-star Plaza tuple.
	db.Relation(1).MutateTuple(0, func(t *fd.Tuple) { t.Imp = 4 })
	rs, err := fd.Open(context.Background(), db, fd.Query{Mode: fd.ModeRanked, Rank: "fmax", K: 1})
	if err != nil {
		panic(err)
	}
	defer rs.Close()
	top, _ := rs.Next()
	fmt.Printf("%s rank %.0f\n", fd.Format(db, top.Set), top.Rank)
	// Output:
	// {c1, a1} rank 4
}

// ExampleOpen_approx joins a misspelled country name using Levenshtein
// similarity: exact joins miss "Cannada", approximate ones recover it.
func ExampleOpen_approx() {
	db := tourist()
	// Misspell c1's Country, as in Example 6.1 of the paper.
	cl := db.Relation(0)
	pos, _ := cl.Schema().Position("Country")
	cl.Tuple(0).Values[pos] = fd.V("Cannada")

	rs, err := fd.Open(context.Background(), db, fd.Query{Mode: fd.ModeApprox, Tau: 0.8, Sim: "levenshtein"})
	if err != nil {
		panic(err)
	}
	defer rs.Close()
	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
		if fd.Format(db, r.Set) == "{c1, a2, s1}" {
			fmt.Println("recovered:", fd.Format(db, r.Set))
		}
	}
	// Output:
	// recovered: {c1, a2, s1}
}
