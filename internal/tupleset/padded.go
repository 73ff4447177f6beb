package tupleset

import (
	"strings"

	"repro/internal/relation"
)

// Padded is the classical rendering of a tuple set: the natural join of
// its member tuples over the union of their schemas, padded with nulls
// (the last six columns of Table 2 in the paper). Two padded tuples
// over the same attribute list are comparable by subsumption, which is
// how the Rajaraman–Ullman definition of a full disjunction removes
// redundancy.
//
// Padded tuples are assembled from the database's columnar code mirror:
// Codes carries the dictionary code per attribute (relation.NullCode
// for ⊥) and is the representation comparisons and keys work on; Values
// is the decoded rendering kept for display and for callers that want
// real text.
type Padded struct {
	Attrs  []relation.Attribute // sorted
	Values []relation.Value     // aligned with Attrs
	Codes  []int32              // aligned with Attrs; nil only for hand-built values
}

// PadCodesInto fills dst with the padded tuple of a join-consistent set
// s over AllAttributes, as dictionary codes; dst must be exactly that
// long and is overwritten. For every attribute the value is the
// (unique, by join consistency) non-null code any member carries for
// it, or NullCode when no member carries a non-null value there. A
// valid binding signature IS that vector, so for signature-carrying
// sets this is a straight copy. It allocates nothing, so renderers can
// reuse one buffer across a page of results.
func (u *Universe) PadCodesInto(s *Set, dst []int32) {
	u.ensureLayout()
	if u.sigReady(s, nil) {
		for g := range dst {
			// Zero bindings are unmentioned, negative bindings are ⊥
			// tags; both pad to NullCode.
			dst[g] = max(s.binding[g], relation.NullCode)
		}
		return
	}
	clear(dst)
	for r, idx := range s.members {
		if idx == none {
			continue
		}
		for p, g := range u.proj[r] {
			if dst[g] == relation.NullCode {
				dst[g] = u.DB.Col(r, p)[idx]
			}
		}
	}
}

// Pad materialises the padded tuple of a join-consistent set s over the
// sorted union of its members' schemas.
func (u *Universe) Pad(s *Set) Padded {
	u.ensureLayout()
	codes := make([]int32, len(u.allAttrs))
	u.PadCodesInto(s, codes)
	mentioned := make([]bool, len(u.allAttrs))
	width := 0
	for r, idx := range s.members {
		if idx == none {
			continue
		}
		for _, g := range u.proj[r] {
			if !mentioned[g] {
				mentioned[g] = true
				width++
			}
		}
	}
	out := Padded{
		Attrs:  make([]relation.Attribute, 0, width),
		Values: make([]relation.Value, 0, width),
		Codes:  make([]int32, 0, width),
	}
	dict := u.DB.Dict()
	for g, in := range mentioned {
		if !in {
			continue
		}
		out.Attrs = append(out.Attrs, u.allAttrs[g])
		out.Codes = append(out.Codes, codes[g])
		out.Values = append(out.Values, dict.Lookup(codes[g]))
	}
	return out
}

// PadOver is like Pad but places the values on a caller-supplied
// attribute universe, padding attributes absent from the set's schema
// with nulls. All results of one full disjunction rendered with PadOver
// over the global attribute list are directly comparable.
func (u *Universe) PadOver(s *Set, attrs []relation.Attribute) Padded {
	u.ensureLayout()
	codes := make([]int32, len(u.allAttrs))
	u.PadCodesInto(s, codes)
	out := Padded{
		Attrs:  attrs,
		Values: make([]relation.Value, len(attrs)),
		Codes:  make([]int32, len(attrs)),
	}
	dict := u.DB.Dict()
	for i, a := range attrs {
		if g, ok := u.attrPos[a]; ok {
			out.Codes[i] = codes[g]
		}
		out.Values[i] = dict.Lookup(out.Codes[i])
	}
	return out
}

// AllAttributes returns the sorted union of all attributes in the
// database.
func (u *Universe) AllAttributes() []relation.Attribute {
	u.ensureLayout()
	return u.allAttrs
}

// Subsumes reports whether p subsumes q: over the same attribute list,
// every non-null value of q appears identically in p. Equal padded
// tuples subsume each other. When both sides carry codes the test is
// pure integer comparison.
func (p Padded) Subsumes(q Padded) bool {
	if len(p.Attrs) != len(q.Attrs) {
		return false
	}
	if p.Codes != nil && q.Codes != nil {
		for i := range q.Codes {
			if q.Codes[i] == relation.NullCode {
				continue
			}
			if p.Codes[i] != q.Codes[i] {
				return false
			}
		}
		return true
	}
	for i := range q.Values {
		if q.Values[i].IsNull() {
			continue
		}
		if p.Values[i] != q.Values[i] {
			return false
		}
	}
	return true
}

// Key returns a canonical key for the padded tuple: a compact binary
// encoding of the code vector (4 bytes per attribute). Keys of padded
// tuples over the same database and attribute list are equal iff the
// tuples are equal; no datum strings are materialised.
func (p Padded) Key() string {
	if p.Codes == nil {
		// Hand-built padded tuples (tests) fall back to datum rendering.
		parts := make([]string, len(p.Values))
		for i, v := range p.Values {
			if v.IsNull() {
				parts[i] = relation.NullToken
			} else {
				parts[i] = v.Datum()
			}
		}
		return strings.Join(parts, "\x1f")
	}
	return relation.CodeKey(p.Codes)
}

// String renders the padded tuple as (v1, v2, ...).
func (p Padded) String() string {
	parts := make([]string, len(p.Values))
	for i, v := range p.Values {
		parts[i] = v.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}
