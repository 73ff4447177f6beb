package service

import (
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"

	"repro/internal/relation"
	"repro/internal/tupleset"
)

// The result wire format of cmd/fdserve, written straight from the
// dictionary codes into one byte slice: no per-result map, string or
// reflection. A page is exactly what encoding/json (HTML escaping on,
// its default) writes for
//
//	{"results":[{"set":"{c1, a2}","rank":0.5,"values":{"A":"x","B":null}}],"done":false,"served":1}
//
// plus its trailing newline. "rank" appears on ranked results only, and
// "values" holds the padded tuple over the database's full attribute
// universe, whose sorted order is encoding/json's map-key order.

// AppendPage appends the body of one result page to dst. It fails, as
// encoding/json does, on a rank with no JSON number (NaN or ±Inf).
func AppendPage(dst []byte, u *tupleset.Universe, page []Result, done bool, served int) ([]byte, error) {
	r := newRenderer(u)
	dst = append(dst, `{"results":[`...)
	for i, res := range page {
		if i > 0 {
			dst = append(dst, ',')
		}
		var err error
		if dst, err = r.appendResult(dst, res); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `],"done":`...)
	dst = strconv.AppendBool(dst, done)
	dst = append(dst, `,"served":`...)
	dst = strconv.AppendInt(dst, int64(served), 10)
	return append(dst, "}\n"...), nil
}

// AppendResult appends the JSON object of one result, rendered over the
// universe its set is bound to, to dst.
func AppendResult(dst []byte, u *tupleset.Universe, res Result) ([]byte, error) {
	return newRenderer(u).appendResult(dst, res)
}

// renderer holds what every result of one universe shares: the quoted
// attribute keys and a padded-code buffer.
type renderer struct {
	u     *tupleset.Universe
	dict  *relation.Dict
	keys  []byte  // `"A":"B":` — each attribute quoted, then ':'
	ends  []int   // attribute i's key is keys[ends[i-1]:ends[i]]
	codes []int32 // padded codes of the result being written
}

func newRenderer(u *tupleset.Universe) *renderer {
	attrs := u.AllAttributes()
	r := &renderer{u: u, dict: u.DB.Dict(), ends: make([]int, len(attrs)), codes: make([]int32, len(attrs))}
	for i, a := range attrs {
		r.keys = append(appendString(r.keys, string(a)), ':')
		r.ends[i] = len(r.keys)
	}
	return r
}

func (r *renderer) appendResult(dst []byte, res Result) ([]byte, error) {
	// "set" is tupleset.Set.Format: labels in relation order, an
	// unlabeled tuple named Relation[index] as Database.Label does.
	// Escaping the pieces apart equals escaping the joined string, since
	// the separators are ASCII.
	db := r.u.DB
	dst = append(dst, `{"set":"{`...)
	sep := false
	for rel := range db.NumRelations() {
		ref, ok := res.Set.Member(rel)
		if !ok {
			continue
		}
		if sep {
			dst = append(dst, ", "...)
		}
		sep = true
		if label := db.Tuple(ref).Label; label != "" {
			dst = appendEscaped(dst, label)
			continue
		}
		dst = appendEscaped(dst, db.Relation(rel).Name())
		dst = append(dst, '[')
		dst = strconv.AppendInt(dst, int64(ref.Idx), 10)
		dst = append(dst, ']')
	}
	dst = append(dst, `}"`...)
	if res.Ranked {
		if math.IsNaN(res.Rank) || math.IsInf(res.Rank, 0) {
			return dst, fmt.Errorf("service: rank %v of %s has no JSON encoding", res.Rank, res.Set.Format(db))
		}
		dst = append(dst, `,"rank":`...)
		dst = appendFloat(dst, res.Rank)
	}
	dst = append(dst, `,"values":{`...)
	r.u.PadCodesInto(res.Set, r.codes)
	start := 0
	for i, c := range r.codes {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, r.keys[start:r.ends[i]]...)
		start = r.ends[i]
		if c == relation.NullCode {
			dst = append(dst, "null"...)
		} else {
			dst = appendString(dst, r.dict.Datum(c))
		}
	}
	return append(dst, "}}"...), nil
}

// appendFloat writes f as encoding/json writes a float64: the shortest
// 'f' form, or the 'e' form below 1e-6 and from 1e21 up, with a
// two-digit negative exponent trimmed (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// appendString writes s as a JSON string, escaped as encoding/json does.
func appendString(dst []byte, s string) []byte {
	return append(appendEscaped(append(dst, '"'), s), '"')
}

// htmlSafe marks the ASCII bytes encoding/json writes unescaped by
// default: printable, and none of `"`, `\`, `<`, `>`, `&`.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for b := byte(' '); b < utf8.RuneSelf; b++ {
		safe[b] = b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// appendEscaped writes the body of s as a JSON string, without quotes,
// byte for byte as encoding/json's default encoder does: `"` and `\`
// backslashed, \b \f \n \r \t short forms, other control bytes and
// `<` `>` `&` as \u00XX, invalid UTF-8 as \ufffd, and U+2028/U+2029 as
// \u2028/\u2029.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if htmlSafe[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}
