package fd

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzQuery decodes arbitrary bytes as a JSON Query and holds the spec
// layer to its contracts: Validate never panics, and for every valid
// query normalize is idempotent, the normalised query keeps its
// canonical key (and validity and family) across a JSON round trip,
// its family has a predicate, and Follow is valid exactly when the
// query is maintainable. The seed corpus is testdata/fuzz/FuzzQuery;
// run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzQuery -fuzztime 20s .
func FuzzQuery(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var q Query
		if json.Unmarshal(data, &q) != nil || q.Validate() != nil {
			return
		}
		n := q.normalize()
		if nn := n.normalize(); !reflect.DeepEqual(nn, n) {
			t.Fatalf("normalize not idempotent:\n  once  %+v\n  twice %+v", n, nn)
		}
		raw, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal %+v: %v", n, err)
		}
		var back Query
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", raw, err)
		}
		if back.Canonical() != q.Canonical() {
			t.Fatalf("canonical key changed across %s: %q vs %q", raw, back.Canonical(), q.Canonical())
		}
		if err := back.Validate(); err != nil {
			t.Fatalf("normalised query %s invalid: %v", raw, err)
		}
		if back.Family() != q.Family() {
			t.Fatalf("family changed across %s: %+v vs %+v", raw, back.Family(), q.Family())
		}
		if q.Family().Predicate() == nil {
			t.Fatalf("%+v: family %+v has no predicate", q, q.Family())
		}
		follow := q
		follow.Follow = true
		if valid := follow.Validate() == nil; valid != q.maintainable() {
			t.Fatalf("%+v: Follow valid = %v, maintainable = %v", q, valid, q.maintainable())
		}
	})
}
