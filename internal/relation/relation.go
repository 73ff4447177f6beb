package relation

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
)

// Tuple is a row of a relation. Values are aligned with the relation's
// schema in sorted attribute order. Imp is the tuple's importance score
// used by ranking functions (Section 5); Prob is its probability of
// being correct, used by approximate join functions (Section 6). Both
// default to 1.
//
// Values, Imp and Prob may be adjusted after the relation has been
// added to a Database, but only until the database freezes (its first
// query, or an explicit Database.Freeze): at that point the database
// snapshots every tuple into its columnar dictionary mirror (see
// Database). Mutate tuples through Relation.MutateTuple, which enforces
// the contract by panicking after the freeze; writing through a
// retained *Tuple bypasses the check and the write is silently
// invisible to the algorithms.
type Tuple struct {
	// Label is an optional human-readable identifier such as "c1" in
	// Table 1 of the paper. It plays no role in the algorithms.
	Label string
	// Values holds one value per schema attribute, in schema order.
	Values []Value
	// Imp is the importance imp(t) of the tuple (Section 5).
	Imp float64
	// Prob is the probability prob(t) that the tuple is correct
	// (Section 6). Must lie in [0, 1].
	Prob float64
}

// Relation is a named relation: a schema plus a sequence of tuples.
// Tuple values and metadata may be adjusted through MutateTuple until
// the owning Database freezes; appending tuples is likewise rejected
// after the freeze.
type Relation struct {
	name   string
	schema *Schema
	tuples []Tuple
	// mu orders mutations against the freeze and against each other:
	// MutateTuple and the appenders hold it exclusively while they
	// write, as does freeze(), so a mutation racing the database's
	// first query either completes before the mirror is encoded or
	// panics — never tears the encoding.
	mu     sync.RWMutex
	frozen bool
}

// NewRelation creates an empty relation with the given name and schema.
func NewRelation(name string, schema *Schema) (*Relation, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: relation name must be non-empty")
	}
	if schema == nil {
		return nil, fmt.Errorf("relation %s: nil schema", name)
	}
	return &Relation{name: name, schema: schema}, nil
}

// MustRelation is like NewRelation but panics on error.
func MustRelation(name string, schema *Schema) *Relation {
	r, err := NewRelation(name, schema)
	if err != nil {
		panic(err)
	}
	return r
}

// Name returns the relation's name.
func (r *Relation) Name() string { return r.name }

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples in the relation.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple. The returned pointer stays valid while
// the relation is alive; callers must not mutate through it — use
// MutateTuple, which enforces the freeze contract.
func (r *Relation) Tuple(i int) *Tuple { return &r.tuples[i] }

// Frozen reports whether the relation belongs to a frozen Database (see
// Database.Freeze).
func (r *Relation) Frozen() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.frozen
}

// freeze marks the relation immutable; called by Database.Freeze. The
// lock waits out any in-flight MutateTuple/append, so the mirror
// encoding that follows never observes a torn write.
func (r *Relation) freeze() {
	r.mu.Lock()
	r.frozen = true
	r.mu.Unlock()
}

// MutateTuple adjusts the i-th tuple through fn. It is the supported
// mutation path: it panics once the owning Database has frozen (built
// its columnar mirror at the first query or an explicit Freeze), where
// a write through a retained *Tuple would be silently ignored by every
// predicate. The freeze check and the write happen under one lock, so
// a mutation racing the first query either lands before the mirror is
// encoded or panics. A mutation that leaves the tuple failing
// CheckTuple is undone, Values included, and panics with the check's
// message.
func (r *Relation) MutateTuple(i int, fn func(*Tuple)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		panic(fmt.Sprintf("relation %s: tuple mutation after the database froze", r.name))
	}
	old := r.tuples[i]
	old.Values = slices.Clone(old.Values)
	fn(&r.tuples[i])
	if err := r.CheckTuple(&r.tuples[i]); err != nil {
		r.tuples[i] = old
		panic(fmt.Sprintf("relation %s: tuple %d: %v", r.name, i, err))
	}
}

// Append adds a tuple given as an attribute→value map. Attributes
// missing from the map become null. Unknown attributes are an error.
// The tuple receives Imp=1 and Prob=1; use AppendTuple for full control.
func (r *Relation) Append(label string, vals map[Attribute]Value) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return fmt.Errorf("relation %s: append after the database froze", r.name)
	}
	row := make([]Value, r.schema.Len())
	for a, v := range vals {
		i, ok := r.schema.Position(a)
		if !ok {
			return fmt.Errorf("relation %s: unknown attribute %q", r.name, a)
		}
		row[i] = v
	}
	r.tuples = append(r.tuples, Tuple{Label: label, Values: row, Imp: 1, Prob: 1})
	return nil
}

// AppendTuple adds a fully specified tuple that passes CheckTuple.
func (r *Relation) AppendTuple(t Tuple) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.frozen {
		return fmt.Errorf("relation %s: append after the database froze", r.name)
	}
	if err := r.CheckTuple(&t); err != nil {
		return fmt.Errorf("relation %s: %w", r.name, err)
	}
	r.tuples = append(r.tuples, t)
	return nil
}

// CheckTuple reports whether t may be appended to the relation: its
// value count must match the schema width, Imp must be finite (a NaN
// or infinite importance has no place in a rank order) and Prob must
// lie in [0, 1]. AppendTuple, Database.Extend, ReadCSV, ReadSnapshot
// and row-log replay apply the same check.
func (r *Relation) CheckTuple(t *Tuple) error {
	if len(t.Values) != r.schema.Len() {
		return fmt.Errorf("tuple has %d values, schema has %d attributes", len(t.Values), r.schema.Len())
	}
	if math.IsNaN(t.Imp) || math.IsInf(t.Imp, 0) {
		return fmt.Errorf("tuple importance %v is not finite", t.Imp)
	}
	if !(t.Prob >= 0 && t.Prob <= 1) { // NaN fails both comparisons
		return fmt.Errorf("tuple probability %v outside [0,1]", t.Prob)
	}
	return nil
}

// MustAppend is like Append but panics on error; for tests and examples.
func (r *Relation) MustAppend(label string, vals map[Attribute]Value) {
	if err := r.Append(label, vals); err != nil {
		panic(err)
	}
}

// Value returns tuple i's value for attribute a, and whether the schema
// contains a.
func (r *Relation) Value(i int, a Attribute) (Value, bool) {
	p, ok := r.schema.Position(a)
	if !ok {
		return Null, false
	}
	return r.tuples[i].Values[p], true
}

// Size returns the total size of the relation in the paper's sense: the
// number of (attribute, value) cells plus tuple overhead. It is the s
// contribution of this relation in the complexity bounds.
func (r *Relation) Size() int {
	return len(r.tuples) * (1 + r.schema.Len())
}

// String renders the relation as a small ASCII table, useful in tests
// and examples.
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s%s\n", r.name, r.schema)
	for i := range r.tuples {
		t := &r.tuples[i]
		parts := make([]string, len(t.Values))
		for j, v := range t.Values {
			parts[j] = v.String()
		}
		if t.Label != "" {
			fmt.Fprintf(&b, "  %s: %s\n", t.Label, strings.Join(parts, ", "))
		} else {
			fmt.Fprintf(&b, "  %s\n", strings.Join(parts, ", "))
		}
	}
	return b.String()
}
