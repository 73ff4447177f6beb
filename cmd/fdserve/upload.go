package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"unicode/utf8"

	"repro/internal/relation"
)

// The bodies of POST /databases and POST /databases/{name}/rows are
// read by uploadReader, a byte-level JSON reader written for these two
// shapes: it builds relation tuples straight from the body, with each
// value placed at its schema position and each distinct datum string
// allocated once per body. It keeps the meaning encoding/json gave the
// bodies when they were decoded through reflection:
//
//   - keys come in any order and match field names case-insensitively
//     (bytes.EqualFold, encoding/json's rule); an unknown key is an error;
//   - strings unquote as encoding/json unquotes them, invalid UTF-8
//     included (each bad byte becomes U+FFFD);
//   - numbers follow the JSON grammar and parse with strconv.ParseFloat,
//     so one out of float64's range is an error;
//   - null leaves a field at its zero value: a null datum is ⊥, a null
//     tuple, relation or body is the empty object;
//   - only whitespace may follow the body's value.
//
// One thing is stricter: a key repeated within one object is refused,
// where encoding/json merged the values in ways no client should
// depend on. The workload form of POST /databases is about a hundred
// bytes and still decodes through encoding/json.

var errUnexpectedEOF = errors.New("decode request: unexpected EOF")

// errRepeatedKey is wrapped by the error for a key repeated within one
// object.
var errRepeatedKey = errors.New("repeated key")

type uploadReader struct {
	data []byte
	pos  int
	// datums interns every datum string of the body.
	datums map[string]string
	// vals and rows are the scratch one tuples array is decoded into;
	// tuples copies the values out at their exact size.
	vals []relation.Value
	rows []relation.Tuple
}

func newUploadReader(data []byte) *uploadReader {
	return &uploadReader{data: data, datums: make(map[string]string)}
}

// --- the two bodies -----------------------------------------------------

var (
	createFields   = fieldNames("name", "workload", "relations")
	relationFields = fieldNames("name", "attributes", "tuples")
	tupleFields    = fieldNames("label", "values", "imp", "prob")
	rowsFields     = fieldNames("relation", "attributes", "tuples")
)

// createBody is a decoded POST /databases body: exactly one of
// workload and db is set.
type createBody struct {
	name     string
	workload *workloadSpec
	db       *relation.Database
}

// readCreateBody decodes a POST /databases body, building the database
// of its relations form.
func readCreateBody(data []byte) (createBody, error) {
	r := newUploadReader(data)
	var (
		req          createBody
		rels         []*relation.Relation
		hasRelations bool
		seen         uint
	)
	_, err := r.object("request body", func(key []byte) error {
		f, err := field(key, createFields, &seen)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			req.name, err = r.stringOrNull()
		case 1:
			dec := json.NewDecoder(bytes.NewReader(r.data[r.pos:]))
			dec.DisallowUnknownFields()
			if err = dec.Decode(&req.workload); err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			r.pos += int(dec.InputOffset())
			if err != nil {
				err = fmt.Errorf("decode request: workload: %w", err)
			}
		case 2:
			null, aerr := r.array("relations", func(int) error {
				rel, err := r.relation()
				rels = append(rels, rel)
				return err
			})
			hasRelations, err = !null, aerr
		}
		return err
	})
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return createBody{}, err
	}
	switch {
	case req.workload != nil && hasRelations:
		return createBody{}, errors.New("set either workload or relations, not both")
	case req.workload == nil && !hasRelations:
		return createBody{}, errors.New("missing workload or relations")
	case hasRelations:
		if req.db, err = relation.NewDatabase(rels...); err != nil {
			return createBody{}, err
		}
	}
	return req, nil
}

// relation reads one relation object of a POST /databases body and
// builds it. Its tuples decode as they are read when the attributes
// came first; otherwise they are checked, and decoded once the object
// closes and the schema is known.
func (r *uploadReader) relation() (*relation.Relation, error) {
	var (
		name   string
		attrs  []relation.Attribute
		schema *relation.Schema
		tuples []relation.Tuple
		later  = -1 // offset of tuples read before the attributes
		seen   uint
	)
	_, err := r.object("relation", func(key []byte) error {
		f, err := field(key, relationFields, &seen)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			name, err = r.stringOrNull()
		case 1:
			if attrs, err = r.attributes(); err == nil {
				// An invalid schema is reported once the object closes.
				schema, _ = relation.NewSchema(attrs...)
			}
		case 2:
			if schema == nil {
				later = r.pos
				_, err = r.tuples(nil, 0)
			} else if tuples, err = r.tuples(positions(schema, attrs), schema.Len()); err != nil {
				err = fmt.Errorf("relation %s: %w", name, err)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if schema == nil {
		_, err := relation.NewSchema(attrs...)
		return nil, fmt.Errorf("relation %s: %w", name, err)
	}
	rel, err := relation.NewRelation(name, schema)
	if err != nil {
		return nil, err
	}
	if later >= 0 {
		end := r.pos
		r.pos = later
		tuples, err = r.tuples(positions(schema, attrs), schema.Len())
		r.pos = end
		if err != nil {
			return nil, fmt.Errorf("relation %s: %w", name, err)
		}
	}
	for i, t := range tuples {
		if err := rel.AppendTuple(t); err != nil {
			return nil, fmt.Errorf("relation %s tuple %d: %w", name, i, err)
		}
	}
	return rel, nil
}

// rowsBody is a decoded POST /databases/{name}/rows body whose tuples
// are checked but not yet built: building needs the relation's schema.
type rowsBody struct {
	r        *uploadReader
	relation string
	// attrs names the order of each tuple's values; nil (absent or
	// null) means the schema's sorted order.
	attrs []relation.Attribute
	// tuples is the body offset of the tuples array, -1 if absent.
	tuples int
}

// readRowsBody decodes a POST /databases/{name}/rows body. Every error
// of syntax or type is reported here, before the database is looked up.
func readRowsBody(data []byte) (*rowsBody, error) {
	b := &rowsBody{r: newUploadReader(data), tuples: -1}
	r := b.r
	var seen uint
	_, err := r.object("rows request", func(key []byte) error {
		f, err := field(key, rowsFields, &seen)
		if err != nil {
			return err
		}
		switch f {
		case 0:
			b.relation, err = r.stringOrNull()
		case 1:
			b.attrs, err = r.attributes()
		case 2:
			b.tuples = r.pos
			_, err = r.tuples(nil, 0)
		}
		return err
	})
	if err == nil {
		err = r.end()
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// build places the body's tuples on schema, the schema of the relation
// the body names. Every attribute the body lists must be one of the
// schema's, and none may be listed twice.
func (b *rowsBody) build(schema *relation.Schema) ([]relation.Tuple, error) {
	attrs := b.attrs
	if attrs == nil {
		attrs = schema.Attributes()
	}
	listed := make(map[relation.Attribute]bool, len(attrs))
	for _, a := range attrs {
		if !schema.Has(a) {
			return nil, fmt.Errorf("relation %q has no attribute %q", b.relation, a)
		}
		if listed[a] {
			return nil, fmt.Errorf("attribute %q is listed twice", a)
		}
		listed[a] = true
	}
	if b.tuples < 0 {
		return nil, nil
	}
	b.r.pos = b.tuples
	return b.r.tuples(positions(schema, attrs), schema.Len())
}

// positions maps the j-th of attrs to its position in schema.
func positions(schema *relation.Schema, attrs []relation.Attribute) []int {
	cols := make([]int, len(attrs))
	for j, a := range attrs {
		cols[j], _ = schema.Position(a)
	}
	return cols
}

// attributes reads an array of attribute names; null reads as nil, a
// null name as "".
func (r *uploadReader) attributes() ([]relation.Attribute, error) {
	attrs := []relation.Attribute{}
	null, err := r.array("attributes", func(int) error {
		a, err := r.stringOrNull()
		attrs = append(attrs, relation.Attribute(a))
		return err
	})
	if null {
		return nil, err
	}
	return attrs, err
}

// tuples reads the JSON array of tuple objects at the cursor. The j-th
// value of a tuple lands at position cols[j] of its width values, a
// null value stays ⊥, a zero or absent imp becomes 1 and an absent or
// null prob becomes 1. With cols nil the tuples are checked and
// dropped. The result is the reader's scratch, valid until the next
// call; the values of all tuples share one allocation of their exact
// size.
func (r *uploadReader) tuples(cols []int, width int) ([]relation.Tuple, error) {
	r.vals, r.rows = r.vals[:0], r.rows[:0]
	_, err := r.array("tuples", func(i int) error {
		t := relation.Tuple{Prob: 1}
		base := len(r.vals)
		if cols != nil {
			r.vals = append(r.vals, make([]relation.Value, width)...)
		}
		n := 0
		var seen uint
		_, err := r.object("tuple", func(key []byte) error {
			f, err := field(key, tupleFields, &seen)
			if err != nil {
				return err
			}
			switch f {
			case 0:
				t.Label, err = r.stringOrNull()
			case 1:
				_, err = r.array("values", func(int) error {
					v, err := r.datum()
					if n < len(cols) {
						r.vals[base+cols[n]] = v
					}
					n++
					return err
				})
			case 2:
				_, err = r.numberOrNull(&t.Imp)
			case 3:
				var null bool
				if null, err = r.numberOrNull(&t.Prob); null {
					t.Prob = 1
				}
			}
			return err
		})
		if err != nil || cols == nil {
			return err
		}
		if n != len(cols) {
			return fmt.Errorf("tuple %d: %d values for %d attributes", i, n, len(cols))
		}
		if t.Imp == 0 {
			t.Imp = 1
		}
		r.rows = append(r.rows, t)
		return nil
	})
	if err != nil || cols == nil {
		return nil, err
	}
	vals := make([]relation.Value, len(r.vals))
	copy(vals, r.vals)
	for i := range r.rows {
		r.rows[i].Values = vals[i*width : (i+1)*width : (i+1)*width]
	}
	return r.rows, nil
}

// datum reads one tuple value: null is ⊥, a string is interned.
func (r *uploadReader) datum() (relation.Value, error) {
	c, err := r.peek()
	if err != nil {
		return relation.Value{}, err
	}
	if c == 'n' {
		return relation.Value{}, r.null()
	}
	if c != '"' {
		return relation.Value{}, r.typeError(c, "tuple value")
	}
	b, err := r.str()
	if err != nil {
		return relation.Value{}, err
	}
	s, ok := r.datums[string(b)]
	if !ok {
		s = string(b)
		r.datums[s] = s
	}
	return relation.V(s), nil
}

// --- JSON grammar ---------------------------------------------------------

// fieldNames lists the field names of one object shape.
func fieldNames(names ...string) [][]byte {
	out := make([][]byte, len(names))
	for i, n := range names {
		out[i] = []byte(n)
	}
	return out
}

// field returns the index in names of the field key names, matched as
// encoding/json matches a key to a struct field. An unknown key, or
// one whose field *seen already records, is an error.
func field(key []byte, names [][]byte, seen *uint) (int, error) {
	f := slices.IndexFunc(names, func(n []byte) bool { return string(key) == string(n) })
	if f < 0 {
		f = slices.IndexFunc(names, func(n []byte) bool { return bytes.EqualFold(key, n) })
	}
	switch {
	case f < 0:
		return 0, fmt.Errorf("decode request: unknown field %q", key)
	case *seen&(1<<f) != 0:
		return 0, fmt.Errorf("decode request: %w %q", errRepeatedKey, key)
	}
	*seen |= 1 << f
	return f, nil
}

// end checks that only whitespace follows the body's value.
func (r *uploadReader) end() error {
	r.ws()
	if r.pos < len(r.data) {
		return errors.New("decode request: trailing data after the JSON value")
	}
	return nil
}

func (r *uploadReader) ws() {
	for r.pos < len(r.data) {
		switch r.data[r.pos] {
		case ' ', '\t', '\n', '\r':
			r.pos++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte without consuming it.
func (r *uploadReader) peek() (byte, error) {
	r.ws()
	if r.pos >= len(r.data) {
		return 0, errUnexpectedEOF
	}
	return r.data[r.pos], nil
}

// invalid reports the byte at the cursor as a syntax error.
func (r *uploadReader) invalid(context string) error {
	if r.pos >= len(r.data) {
		return errUnexpectedEOF
	}
	return fmt.Errorf("decode request: invalid character %q %s at offset %d", r.data[r.pos], context, r.pos)
}

// typeError reports a value of the wrong kind, named by its first byte
// c, where into was expected.
func (r *uploadReader) typeError(c byte, into string) error {
	kind := ""
	switch {
	case c == '{':
		kind = "object"
	case c == '[':
		kind = "array"
	case c == '"':
		kind = "string"
	case c == 't' || c == 'f':
		kind = "bool"
	case c == '-' || '0' <= c && c <= '9':
		kind = "number"
	default:
		return r.invalid("looking for beginning of value")
	}
	return fmt.Errorf("decode request: cannot unmarshal %s into %s at offset %d", kind, into, r.pos)
}

// null consumes the literal null.
func (r *uploadReader) null() error {
	const word = "null"
	for i := 0; i < len(word); i++ {
		if r.pos >= len(r.data) {
			return errUnexpectedEOF
		}
		if r.data[r.pos] != word[i] {
			return r.invalid(fmt.Sprintf("in literal null (expecting %q)", word[i]))
		}
		r.pos++
	}
	return nil
}

// object reads the JSON object at the cursor (into names it in type
// errors), calling fn for each key with the cursor at the key's value;
// fn must consume the value. A null object calls fn never and reports
// null.
func (r *uploadReader) object(into string, fn func(key []byte) error) (null bool, err error) {
	c, err := r.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, r.null()
	case '{':
	default:
		return false, r.typeError(c, into)
	}
	r.pos++
	if c, err = r.peek(); err != nil || c == '}' {
		r.pos++
		return false, err
	}
	for {
		if c != '"' {
			return false, r.invalid("looking for beginning of object key string")
		}
		key, err := r.str()
		if err != nil {
			return false, err
		}
		if c, err = r.peek(); err != nil {
			return false, err
		}
		if c != ':' {
			return false, r.invalid("after object key")
		}
		r.pos++
		if err := fn(key); err != nil {
			return false, err
		}
		if c, err = r.peek(); err != nil {
			return false, err
		}
		r.pos++
		switch c {
		case '}':
			return false, nil
		case ',':
			if c, err = r.peek(); err != nil {
				return false, err
			}
		default:
			r.pos--
			return false, r.invalid("after object key:value pair")
		}
	}
}

// array reads the JSON array at the cursor, calling fn with the cursor
// at each element; fn must consume it. A null array calls fn never and
// reports null.
func (r *uploadReader) array(into string, fn func(i int) error) (null bool, err error) {
	c, err := r.peek()
	if err != nil {
		return false, err
	}
	switch c {
	case 'n':
		return true, r.null()
	case '[':
	default:
		return false, r.typeError(c, into)
	}
	r.pos++
	if c, err = r.peek(); err != nil || c == ']' {
		r.pos++
		return false, err
	}
	for i := 0; ; i++ {
		if err := fn(i); err != nil {
			return false, err
		}
		if c, err = r.peek(); err != nil {
			return false, err
		}
		r.pos++
		switch c {
		case ']':
			return false, nil
		case ',':
		default:
			r.pos--
			return false, r.invalid("after array element")
		}
	}
}

// stringOrNull reads a string; null reads as "".
func (r *uploadReader) stringOrNull() (string, error) {
	c, err := r.peek()
	switch {
	case err != nil:
		return "", err
	case c == 'n':
		return "", r.null()
	case c != '"':
		return "", r.typeError(c, "string")
	}
	b, err := r.str()
	return string(b), err
}

// numberOrNull reads a number into *f, leaving *f alone on null.
func (r *uploadReader) numberOrNull(f *float64) (null bool, err error) {
	c, err := r.peek()
	switch {
	case err != nil:
		return false, err
	case c == 'n':
		return true, r.null()
	case c != '-' && (c < '0' || c > '9'):
		return false, r.typeError(c, "number")
	}
	start := r.pos
	if err := r.number(); err != nil {
		return false, err
	}
	v, err := strconv.ParseFloat(string(r.data[start:r.pos]), 64)
	if err != nil {
		return false, fmt.Errorf("decode request: cannot unmarshal number %s into float64", r.data[start:r.pos])
	}
	*f = v
	return false, nil
}

// number consumes a number in JSON's grammar:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (r *uploadReader) number() error {
	if r.pos < len(r.data) && r.data[r.pos] == '-' {
		r.pos++
	}
	switch {
	case r.pos < len(r.data) && r.data[r.pos] == '0':
		r.pos++
	case r.digits() == 0:
		return r.invalid("in numeric literal")
	}
	if r.pos < len(r.data) && r.data[r.pos] == '.' {
		r.pos++
		if r.digits() == 0 {
			return r.invalid("after decimal point in numeric literal")
		}
	}
	if r.pos < len(r.data) && (r.data[r.pos] == 'e' || r.data[r.pos] == 'E') {
		r.pos++
		if r.pos < len(r.data) && (r.data[r.pos] == '+' || r.data[r.pos] == '-') {
			r.pos++
		}
		if r.digits() == 0 {
			return r.invalid("in exponent of numeric literal")
		}
	}
	return nil
}

// digits consumes a run of decimal digits and returns its length.
func (r *uploadReader) digits() int {
	start := r.pos
	for r.pos < len(r.data) && '0' <= r.data[r.pos] && r.data[r.pos] <= '9' {
		r.pos++
	}
	return r.pos - start
}

// str reads the JSON string at the cursor and returns its unquoted
// bytes. A string with no escape and no control byte, in valid UTF-8,
// is returned as a slice of the body; any other goes through
// encoding/json, so that it unquotes (or fails) exactly as there.
func (r *uploadReader) str() ([]byte, error) {
	d := r.data
	ascii := true
	for i := r.pos + 1; i < len(d); i++ {
		c := d[i]
		if c == '"' {
			s := d[r.pos+1 : i]
			if !ascii && !utf8.Valid(s) {
				break
			}
			r.pos = i + 1
			return s, nil
		}
		if c == '\\' || c < 0x20 {
			break
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	for i := r.pos + 1; i < len(d); i++ {
		switch d[i] {
		case '\\':
			i++
		case '"':
			var s string
			if err := json.Unmarshal(d[r.pos:i+1], &s); err != nil {
				return nil, fmt.Errorf("decode request: %w", err)
			}
			r.pos = i + 1
			return []byte(s), nil
		}
	}
	return nil, errUnexpectedEOF
}
