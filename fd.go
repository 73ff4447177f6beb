// Package fd computes full disjunctions of relational databases with
// incomplete information — the associative generalisation of the full
// outerjoin to any number of relations — implementing the algorithms of
//
//	Sara Cohen, Yehoshua Sagiv. "An incremental algorithm for computing
//	ranked full disjunctions." PODS 2005; JCSS 73(4):648–668, 2007.
//
// Every evaluation is described by one declarative, JSON-serialisable
// spec — Query — and executed through one entry point:
//
//	Open(ctx, db, Query) (Results, error)
//
// The four modes map onto the paper's four problems:
//
//   - ModeExact: INCREMENTALFD — FD(R), one result at a time in
//     incremental polynomial time (the problem is in PINC), so the
//     first k answers cost polynomial time in the input and k.
//   - ModeRanked: PRIORITYINCREMENTALFD — results arrive in ranking
//     order under a named monotonically c-determined ranking function;
//     K selects top-(k,f), RankTau the (τ,f)-threshold variant.
//   - ModeApprox: APPROXINCREMENTALFD — the (A,τ)-approximate full
//     disjunction under Amin with a named similarity, matching tuples
//     by similarity instead of equality.
//   - ModeApproxRanked: the ranked approximate adaptation the paper
//     sketches at the end of Section 6.
//
// Quick start:
//
//	climates := fd.MustRelation("Climates", fd.MustSchema("Country", "Climate"))
//	climates.MustAppend("c1", map[fd.Attribute]fd.Value{
//		"Country": fd.V("Canada"), "Climate": fd.V("diverse")})
//	// ... more relations ...
//	db := fd.MustDatabase(climates, accommodations, sites)
//	rs, err := fd.Open(ctx, db, fd.Query{Mode: fd.ModeExact})
//	defer rs.Close()
//	for r, ok := rs.Next(); ok; r, ok = rs.Next() {
//		fmt.Println(fd.Format(db, r.Set))
//	}
//
// Results is a pull cursor with explicit suspended state and honours
// ctx cancellation within one enumeration step. Open is the only way
// to run a query: the per-mode functions of earlier releases
// (FullDisjunction, Stream, TopK, ApproxStream, ...) are gone, and
// docs/QUERY_API.md maps each onto the Query that replaces it.
package fd

import (
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// Core data-model types, re-exported from the internal packages. See
// their documentation for details.
type (
	// Value is a single attribute value; the zero Value is the null ⊥.
	Value = relation.Value
	// Attribute names a column; equal names connect relations.
	Attribute = relation.Attribute
	// Schema is a sorted attribute set.
	Schema = relation.Schema
	// Tuple is a row with optional Label, Imp (ranking) and Prob
	// (approximate joins) metadata. Tuples may be adjusted through
	// Relation.MutateTuple until the database freezes (its first query,
	// or an explicit Database.Freeze); after that MutateTuple panics
	// and appends return an error.
	Tuple = relation.Tuple
	// Relation is a named relation.
	Relation = relation.Relation
	// Database is an immutable set of relations with precomputed join
	// structure and a dictionary-encoded columnar mirror of all values,
	// built lazily at the first query.
	Database = relation.Database
	// Ref identifies a tuple by (relation index, tuple index).
	Ref = relation.Ref
	// TupleSet is a set of tuples, at most one per relation — the unit
	// a full disjunction is made of.
	TupleSet = tupleset.Set
	// Padded is a tuple set rendered as a classical padded tuple.
	Padded = tupleset.Padded
	// Stats carries instrumentation counters of one execution.
	Stats = core.Stats
	// TaskSpan reports one finished parallel enumeration task (label,
	// wall-clock extent, folded counters) to a TaskObserver.
	TaskSpan = core.TaskSpan
	// TaskObserver receives a TaskSpan per finished parallel task; set
	// it via QueryOptions.TaskObserver to trace parallel execution.
	TaskObserver = core.TaskObserver
	// Delay tracks inter-result gaps — the measured form of the paper's
	// polynomial-delay guarantee. Attach one via QueryOptions.Delay and
	// snapshot it any time (see NewDelay).
	Delay = obs.Delay
	// DelaySummary is a point-in-time view of a Delay tracker.
	DelaySummary = obs.DelaySummary
	// Progress holds the atomic live counters of a running enumeration.
	// Attach one via QueryOptions.Progress and snapshot it mid-flight
	// from any goroutine.
	Progress = obs.Progress
	// ProgressData is a point-in-time view of a Progress.
	ProgressData = obs.ProgressData
)

// NewDelay creates a delay tracker keeping the last ring inter-result
// gaps (≤0 selects a default window).
func NewDelay(ring int) *Delay { return obs.NewDelay(ring) }

// Null is the null value ⊥.
var Null = relation.Null

// V returns a non-null value carrying s.
func V(s string) Value { return relation.V(s) }

// NewSchema builds a schema over the given attributes.
func NewSchema(attrs ...Attribute) (*Schema, error) { return relation.NewSchema(attrs...) }

// MustSchema is NewSchema panicking on error.
func MustSchema(attrs ...Attribute) *Schema { return relation.MustSchema(attrs...) }

// NewRelation creates an empty relation.
func NewRelation(name string, schema *Schema) (*Relation, error) {
	return relation.NewRelation(name, schema)
}

// MustRelation is NewRelation panicking on error.
func MustRelation(name string, schema *Schema) *Relation { return relation.MustRelation(name, schema) }

// NewDatabase builds a database over the given relations.
func NewDatabase(rels ...*Relation) (*Database, error) { return relation.NewDatabase(rels...) }

// MustDatabase is NewDatabase panicking on error.
func MustDatabase(rels ...*Relation) *Database { return relation.MustDatabase(rels...) }

// ReadCSV reads a relation from CSV (header row of attribute names;
// optional #label, #imp, #prob metadata columns; empty cells or ⊥ are
// nulls).
func ReadCSV(name string, r io.Reader) (*Relation, error) { return relation.ReadCSV(name, r) }

// WriteCSV writes a relation in the format accepted by ReadCSV.
func WriteCSV(rel *Relation, w io.Writer) error { return relation.WriteCSV(rel, w) }

// WriteSnapshot serialises the database in the versioned binary
// snapshot format (docs/SNAPSHOT_FORMAT.md): the string dictionary,
// per-relation schemas and labels, and the columnar code/imp/prob
// mirror, each section CRC32-checksummed, with the content fingerprint
// embedded in the header. Writing freezes the database.
func WriteSnapshot(db *Database, w io.Writer) error { return db.WriteSnapshot(w) }

// ReadSnapshot loads a database written by WriteSnapshot, adopting the
// dictionary, code columns and join index directly from the file — no
// re-encoding — and verifying every checksum plus the embedded content
// fingerprint before returning. The database arrives frozen and
// query-ready.
func ReadSnapshot(r io.Reader) (*Database, error) { return relation.ReadSnapshot(r) }

// SaveSnapshot writes db's snapshot to a file at path, fsyncing before
// close so the artifact survives a crash right after the call returns.
// It is the file-level convenience the CLIs share; WriteSnapshot is
// the stream-level primitive.
func SaveSnapshot(db *Database, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := db.WriteSnapshot(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot (or any
// WriteSnapshot stream saved to disk).
func LoadSnapshot(path string) (*Database, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return relation.ReadSnapshot(f)
}

// Format renders a tuple set as {label, label, ...} in the notation of
// the paper's Table 2.
func Format(db *Database, t *TupleSet) string { return t.Format(db) }

// Pad renders a tuple set as a classical padded tuple over the union of
// all attributes in the database: the natural join of its members,
// padded with nulls (the right-hand columns of Table 2).
func Pad(db *Database, t *TupleSet) Padded {
	u := tupleset.NewUniverse(db)
	return u.PadOver(t, u.AllAttributes())
}

// PadAll renders many tuple sets over a shared attribute universe,
// returning the sorted attribute list and one padded row per set.
func PadAll(db *Database, sets []*TupleSet) ([]Attribute, []Padded) {
	u := tupleset.NewUniverse(db)
	attrs := u.AllAttributes()
	rows := make([]Padded, len(sets))
	for i, s := range sets {
		rows[i] = u.PadOver(s, attrs)
	}
	return attrs, rows
}
