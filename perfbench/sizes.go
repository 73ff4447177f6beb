package main

import fd "repro"

// family is one cold-drain query family: the query, and the shape of
// the database each of its queries gets to itself.
type family struct {
	name  string
	shape shape
	query fd.Query
}

// hotSpec is one popular hot-serve query on one of the pre-warmed
// databases.
type hotSpec struct {
	db    string
	query fd.Query
	// pageK is the page size of a session; a full read pages through
	// the whole cached list.
	pageK int
}

// sizes fixes every input size of the three workloads.
type sizes struct {
	// cold-drain: per run second, each family gets coldPoolPerSecond
	// fresh databases (at least coldPoolMin), uploaded at set-up.
	cold              []family
	coldPoolPerSecond float64
	coldPoolMin       int

	// hot-serve: the pre-warmed databases, the popular specs in Zipf
	// order, and the full read served on every fullEvery-th session.
	hotDBs    map[string]shape
	hotSpecs  []hotSpec
	hotFull   hotSpec
	fullEvery int

	// append-recover: the base database, a donor of the same shape a
	// third its size, batches of appendBatch rows, split into rounds
	// that each end in a SIGKILL restart, and a re-open of the full
	// query every reopenEvery batches.
	appendBase   shape
	appendBatch  int
	appendRounds int
	reopenEvery  int
}

// defaultHotRate is hot-serve's fixed open-loop rate: about half the
// closed-loop capacity the first measured commit sustained with two
// connections on a 2-CPU box (see METRICS.md).
const defaultHotRate = 270

func exactQ() fd.Query { return fd.Query{Mode: fd.ModeExact} }

func approxQ() fd.Query {
	return fd.Query{Mode: fd.ModeApprox, Tau: 0.8, Sim: "levenshtein"}
}

func rankedQ(rank string, k int) fd.Query {
	return fd.Query{Mode: fd.ModeRanked, Rank: rank, K: k}
}

func approxRankedQ(rank string, k int) fd.Query {
	return fd.Query{Mode: fd.ModeApproxRanked, Rank: rank, K: k, Tau: 0.8, Sim: "levenshtein"}
}

// topK is a first-k prefix of the exact enumeration. Which k results
// come first depends on the enumeration order, so it runs at Workers 1,
// whose order the in-process reference reproduces.
func topK(k int) fd.Query {
	return fd.Query{Mode: fd.ModeExact, K: k, Options: fd.QueryOptions{Workers: 1}}
}

// fullSizes are the benchmark's sizes. Each cold-drain family is sized
// to a median of about 80 ms per query on a 2-CPU box, so the five
// overlap and the median of their mix does not sit in a gap between
// families, where it would jump with the seed.
var fullSizes = sizes{
	cold: []family{
		{"exact-chain", shape{Kind: "chain", Rels: 4, Tuples: 288, Domain: 230, Nulls: 0.1}, exactQ()},
		{"exact-cycle", shape{Kind: "cycle", Rels: 4, Tuples: 216, Domain: 173, Nulls: 0.1}, exactQ()},
		{"approx", shape{Kind: "dirty", Rels: 4, Tuples: 40, Domain: 5, Nulls: 0.1}, approxQ()},
		{"ranked-top10", shape{Kind: "chain", Rels: 4, Tuples: 200, Domain: 25, Nulls: 0.1, Imp: true}, rankedQ("fmax", 10)},
		{"approx-ranked-top10", shape{Kind: "dirty", Rels: 4, Tuples: 300, Domain: 12, Nulls: 0.1, Imp: true}, approxRankedQ("fmax", 10)},
	},
	coldPoolPerSecond: 3,
	coldPoolMin:       4,

	hotDBs: map[string]shape{
		"hk": {Kind: "chain", Rels: 4, Tuples: 56, Domain: 9, Nulls: 0.1},
		"hr": {Kind: "chain", Rels: 4, Tuples: 200, Domain: 25, Nulls: 0.1, Imp: true},
		"ha": {Kind: "dirty", Rels: 4, Tuples: 250, Domain: 12, Nulls: 0.1, Imp: true},
	},
	hotSpecs: []hotSpec{
		{"hk", topK(10), 10},
		{"hr", rankedQ("fmax", 10), 10},
		{"ha", approxRankedQ("fmax", 10), 10},
		{"hr", topK(10), 10},
		{"hr", rankedQ("fmax", 20), 20},
		{"ha", approxRankedQ("fmax", 20), 20},
	},
	// The full read is capped at 4096 results (|FD(hk)| is above 6000
	// on every seed tried), so its cost does not vary with the seed.
	hotFull:   hotSpec{"hk", topK(4096), 1024},
	fullEvery: 20,

	appendBase:   shape{Kind: "chain", Rels: 4, Tuples: 1200, Domain: 1200, Nulls: 0.1},
	appendBatch:  1,
	appendRounds: 8,
	reopenEvery:  20,
}

// tinySizes keep every workload to a second or two for the self-test.
var tinySizes = sizes{
	cold: []family{
		{"exact-chain", shape{Kind: "chain", Rels: 3, Tuples: 8, Domain: 3, Nulls: 0.1}, exactQ()},
		{"exact-cycle", shape{Kind: "cycle", Rels: 3, Tuples: 8, Domain: 3, Nulls: 0.1}, exactQ()},
		{"approx", shape{Kind: "dirty", Rels: 3, Tuples: 10, Domain: 3, Nulls: 0.1}, approxQ()},
		{"ranked-top10", shape{Kind: "chain", Rels: 3, Tuples: 12, Domain: 4, Nulls: 0.1, Imp: true}, rankedQ("fmax", 10)},
		{"approx-ranked-top10", shape{Kind: "dirty", Rels: 3, Tuples: 12, Domain: 4, Nulls: 0.1, Imp: true}, approxRankedQ("fmax", 10)},
	},
	coldPoolPerSecond: 2,
	coldPoolMin:       2,

	hotDBs: map[string]shape{
		"hk": {Kind: "chain", Rels: 3, Tuples: 12, Domain: 3, Nulls: 0.1},
		"hr": {Kind: "chain", Rels: 3, Tuples: 12, Domain: 4, Nulls: 0.1, Imp: true},
		"ha": {Kind: "dirty", Rels: 3, Tuples: 12, Domain: 4, Nulls: 0.1, Imp: true},
	},
	hotSpecs: []hotSpec{
		{"hk", topK(10), 10},
		{"hr", rankedQ("fmax", 10), 10},
		{"ha", approxRankedQ("fmax", 10), 10},
	},
	hotFull:   hotSpec{"hk", exactQ(), 16},
	fullEvery: 20,

	appendBase:   shape{Kind: "chain", Rels: 3, Tuples: 30, Domain: 12, Nulls: 0.1},
	appendBatch:  1,
	appendRounds: 2,
	reopenEvery:  3,
}
