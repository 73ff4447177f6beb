package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/workload"
)

// The reference decoding: how fdserve read the bodies of POST
// /databases and POST /databases/{name}/rows through encoding/json
// before the upload reader. The tests hold readCreateBody and
// readRowsBody to it.

// tupleSpec is one uploaded row; a null JSON value is ⊥. Imp defaults
// to 1 when omitted or zero; Prob defaults to 1 when omitted.
type tupleSpec struct {
	Label  string    `json:"label"`
	Values []*string `json:"values"`
	Imp    float64   `json:"imp"`
	Prob   *float64  `json:"prob"`
}

// tuple decodes an uploaded row whose values name attrs, in that order
// (each an attribute of schema).
func (ts tupleSpec) tuple(schema *relation.Schema, attrs []relation.Attribute) (relation.Tuple, error) {
	if len(ts.Values) != len(attrs) {
		return relation.Tuple{}, fmt.Errorf("%d values for %d attributes", len(ts.Values), len(attrs))
	}
	t := relation.Tuple{Label: ts.Label, Imp: ts.Imp, Prob: 1, Values: make([]relation.Value, schema.Len())}
	if t.Imp == 0 {
		t.Imp = 1
	}
	if ts.Prob != nil {
		t.Prob = *ts.Prob
	}
	for j, v := range ts.Values {
		if v != nil {
			pos, _ := schema.Position(attrs[j])
			t.Values[pos] = relation.V(*v)
		}
	}
	return t, nil
}

type relationSpec struct {
	Name       string      `json:"name"`
	Attributes []string    `json:"attributes"`
	Tuples     []tupleSpec `json:"tuples"`
}

type createDatabaseRequest struct {
	Name      string         `json:"name"`
	Workload  *workloadSpec  `json:"workload,omitempty"`
	Relations []relationSpec `json:"relations,omitempty"`
}

type appendRowsRequest struct {
	Relation   string      `json:"relation"`
	Attributes []string    `json:"attributes,omitempty"`
	Tuples     []tupleSpec `json:"tuples"`
}

func buildUploaded(specs []relationSpec) (*relation.Database, error) {
	rels := make([]*relation.Relation, 0, len(specs))
	for _, rs := range specs {
		attrs := make([]relation.Attribute, len(rs.Attributes))
		for i, a := range rs.Attributes {
			attrs[i] = relation.Attribute(a)
		}
		schema, err := relation.NewSchema(attrs...)
		if err != nil {
			return nil, fmt.Errorf("relation %s: %w", rs.Name, err)
		}
		rel, err := relation.NewRelation(rs.Name, schema)
		if err != nil {
			return nil, err
		}
		for i, ts := range rs.Tuples {
			t, err := ts.tuple(schema, attrs)
			if err != nil {
				return nil, fmt.Errorf("relation %s tuple %d: %w", rs.Name, i, err)
			}
			if err := rel.AppendTuple(t); err != nil {
				return nil, fmt.Errorf("relation %s tuple %d: %w", rs.Name, i, err)
			}
		}
		rels = append(rels, rel)
	}
	return relation.NewDatabase(rels...)
}

// referenceDecode decodes data as exactly one JSON value into v, with
// unknown fields and data after the value refused.
func referenceDecode(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// referenceCreateBody is readCreateBody the reference way.
func referenceCreateBody(data []byte) (createBody, error) {
	var req createDatabaseRequest
	if err := referenceDecode(data, &req); err != nil {
		return createBody{}, err
	}
	out := createBody{name: req.Name, workload: req.Workload}
	var err error
	switch {
	case req.Workload != nil && req.Relations != nil:
		return createBody{}, errors.New("set either workload or relations, not both")
	case req.Workload != nil:
	case req.Relations != nil:
		out.db, err = buildUploaded(req.Relations)
	default:
		return createBody{}, errors.New("missing workload or relations")
	}
	return out, err
}

// referenceRows decodes a rows body the reference way (decodeErr, a
// 400 before the database is looked up) and builds its tuples on
// schema (buildErr, a 400 after).
func referenceRows(data []byte, schema *relation.Schema) (rel string, tuples []relation.Tuple, decodeErr, buildErr error) {
	var req appendRowsRequest
	if err := referenceDecode(data, &req); err != nil {
		return "", nil, err, nil
	}
	attrs := make([]relation.Attribute, 0, schema.Len())
	if req.Attributes == nil {
		attrs = append(attrs, schema.Attributes()...)
	} else {
		for _, a := range req.Attributes {
			if !schema.Has(relation.Attribute(a)) {
				return req.Relation, nil, nil, fmt.Errorf("relation %q has no attribute %q", req.Relation, a)
			}
			attrs = append(attrs, relation.Attribute(a))
		}
	}
	for i, ts := range req.Tuples {
		t, err := ts.tuple(schema, attrs)
		if err != nil {
			return req.Relation, nil, nil, fmt.Errorf("tuple %d: %w", i, err)
		}
		tuples = append(tuples, t)
	}
	return req.Relation, tuples, nil, nil
}

// referenceCreateStatus is the status the reference handler answered
// data with, registering into svc.
func referenceCreateStatus(svc *service.Service, data []byte) (int, service.DatabaseInfo) {
	req, err := referenceCreateBody(data)
	db := req.db
	if err == nil && req.workload != nil {
		db, err = buildWorkload(*req.workload)
	}
	if err != nil {
		return http.StatusBadRequest, service.DatabaseInfo{}
	}
	info, err := svc.AddDatabase(req.name, db)
	if err != nil {
		rec := httptest.NewRecorder()
		writeServiceError(rec, err)
		return rec.Code, service.DatabaseInfo{}
	}
	return http.StatusCreated, info
}

// rowsSchema is the schema the rows bodies of the differential tests
// are built on, as the tuples of relation "R".
var rowsSchema = relation.MustSchema("A", "B")

// uploadCases seed the differential test and FuzzDecodeUpload: key
// order, case folding, nulls in every field, escapes, surrogates and
// invalid UTF-8, numbers at the edges of the grammar, the workload
// form with both forms and neither, repeated keys and attributes, and
// rows-shaped bodies. A perfbench-shaped body is added from
// perfbenchBody.
var uploadCases = []string{
	// Shapes and key order.
	`{"name":"db","relations":[{"name":"R","attributes":["A","B"],"tuples":[{"label":"t1","values":["x","y"],"imp":2,"prob":0.5}]}]}`,
	`{"relations":[{"tuples":[{"values":["x","y"],"label":"t1"}],"attributes":["B","A"],"name":"R"}],"name":"db"}`,
	`{"relations":[{"tuples":[{"values":["x"]}],"name":"R","attributes":["B","A"]}],"name":"db"}`,
	`{"relations":[{"tuples":[{"values":["x",3]}],"attributes":["A","B"],"name":"R"}],"name":"db"}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[]},{"name":"S","attributes":["A","C"],"tuples":[{"values":["x",null]},{"values":[null,"z"]}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"]},{"name":"R","attributes":["A"]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A","A"],"tuples":[{"values":["x","y"]}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x","y"]}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"extra":1}]}]}`,
	`{"name":"db","relations":[]}`,
	`{"name":"db","relations":[{"attributes":["A"]}]}`,
	`{"name":"","relations":[{"name":"R","attributes":["A"]}]}`,
	// Case-folded names, Kelvin sign and long s included.
	`{"NAME":"db","Relations":[{"Name":"R","ATTRIBUTES":["A"],"Tuples":[{"Values":["x"],"IMP":2,"Prob":0.5,"LABEL":"l"}]}]}`,
	"{\"name\":\"db\",\"relationſ\":[{\"name\":\"R\",\"attributeſ\":[\"A\"],\"tupleſ\":[{\"valueſ\":[\"x\"]}]}]}",
	"{\"name\":\"w\",\"worKload\":{\"kind\":\"chain\",\"relations\":2,\"tuples\":2,\"domain\":2}}",
	`{"name":"db","relations":[{"name":"R","attributes":["A"]}]}`,
	// Nulls in every field.
	`null`,
	`{"name":null,"relations":null,"workload":null}`,
	`{"name":"db","relations":[null]}`,
	`{"name":"db","relations":[{"name":null,"attributes":null,"tuples":null}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A",null],"tuples":[]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A","B"],"tuples":[null,{"label":null,"values":[null,"y"],"imp":null,"prob":null}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":null}]}]}`,
	`{"name":"db","workload":null,"relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"]}]}]}`,
	// Escapes, surrogates and invalid UTF-8.
	`{"name":"d\"b\\","relations":[{"name":"Ré","attributes":["A\n","B\/"],"tuples":[{"label":"\t","values":["😀","\ud800"]},{"values":["&lt;","\udc00x"]}]}]}`,
	"{\"name\":\"db\",\"relations\":[{\"name\":\"R\",\"attributes\":[\"A\"],\"tuples\":[{\"label\":\"\xff\xfe\",\"values\":[\"caf\xc3\xa9\"]},{\"values\":[\"\xed\xa0\x80\"]},{\"values\":[\"\xc3\"]}]}]}",
	"{\"name\":\"db\",\"relations\":[{\"name\":\"R\",\"attributes\":[\"A\"],\"tuples\":[{\"values\":[\"a\x01b\"]}]}]}",
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["\x"]}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["\u12"]}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x\\"]}]}]}`,
	// Numbers at the edges of the grammar.
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":0},{"values":["x"],"imp":-0},{"values":["x"],"imp":-0.0e0},{"values":["x"],"imp":1E+2},{"values":["x"],"imp":2.5e-3},{"values":["x"],"imp":1e308},{"values":["x"],"imp":5e-324}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":1e309}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":01}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":+1}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":.5}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":NaN}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":0x1p1}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":1.}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":1e}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":-}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"imp":"1"}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"prob":1.5}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"prob":-1e-400}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"prob":true}]}]}`,
	// The workload form, both forms and neither.
	`{"name":"w","workload":{"kind":"chain","relations":2,"tuples":3,"domain":2,"seed":1}}`,
	`{"name":"w","workload":{"kind":"chain","tupels":2}}`,
	`{"name":"w","workload":{"kind":"chain","relations":2.5}}`,
	`{"name":"w","workload":[1,{"a":[true,false,null]}]}`,
	`{"name":"w","workload":{"kind":"chain","relations":2,"tuples":2,"domain":2},"relations":[{"name":"R","attributes":["A"]}]}`,
	`{"name":"w","workload":{"kind":"chain","relations":2,"tuples":2,"domain":2},"relations":null}`,
	`{"name":"w","workload":{"kind":"chain","relations":2,"tuples":2,"domain":2},"relations":[]}`,
	`{"name":"x"}`,
	`{}`,
	// Repeated keys: refused by the reader (the one allowed divergence).
	`{"name":"a","name":"b","workload":{"kind":"chain","relations":2,"tuples":2,"domain":2}}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],"Values":["y"]}]}]}`,
	`{"relation":"R","relation":"S","tuples":[{"values":["x","y"]}]}`,
	// Malformed and trailing.
	`{"name": "x", "workload": `,
	`not json at all`,
	``,
	`   `,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"]}]}]} `,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"]}]}]} x`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"]}]}]}}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"],}]}]}`,
	`{"name":"db","relations":[{"name":"R","attributes":["A",],"tuples":[]}]}`,
	`{"name":"db" "relations":[]}`,
	`{"name":"db",,"relations":[]}`,
	`{"name":"db":"relations"}`,
	`{name:"db"}`,
	`[]`,
	`"db"`,
	`{"name":"db","relations":[{"name":"R","attributes":["A"],"tuples":[{"values":["x"]}]}`,
	// Rows-shaped bodies, built on R(A, B).
	`{"relation":"R","attributes":["A","B"],"tuples":[{"label":"t","values":["x","y"],"imp":3,"prob":0.25}]}`,
	`{"relation":"R","attributes":["B","A"],"tuples":[{"values":["y","x"]}]}`,
	`{"relation":"R","attributes":["B"],"tuples":[{"values":["y"]}]}`,
	`{"relation":"R","attributes":["A","A"],"tuples":[{"values":["x","y"]}]}`,
	`{"relation":"R","attributes":["C"],"tuples":[{"values":["z"]}]}`,
	`{"relation":"R","attributes":[],"tuples":[{"values":[]}]}`,
	`{"tuples":[{"values":["x",null]}],"relation":"R"}`,
	`{"tuples":[{"values":["x"]}],"relation":"R"}`,
	`{"relation":"R","tuples":[{"values":["x",7]}]}`,
	`{"relation":"R","tuples":null,"attributes":null}`,
	`{"relation":"S","tuples":[]}`,
	`{"RELATION":"R","Tuples":[{"VALUES":["x","y"]}]}`,
}

// perfbenchBody renders db as the upload body perfbench sends: every
// tuple with its label, values, imp and prob.
func perfbenchBody(name string, db *relation.Database) []byte {
	req := createDatabaseRequest{Name: name}
	for _, rel := range db.Relations() {
		rs := relationSpec{Name: rel.Name()}
		for _, a := range rel.Schema().Attributes() {
			rs.Attributes = append(rs.Attributes, string(a))
		}
		for i := range rel.Len() {
			t := rel.Tuple(i)
			ts := tupleSpec{Label: t.Label, Imp: t.Imp, Prob: &t.Prob, Values: make([]*string, len(t.Values))}
			for j, v := range t.Values {
				if !v.IsNull() {
					d := v.Datum()
					ts.Values[j] = &d
				}
			}
			rs.Tuples = append(rs.Tuples, ts)
		}
		req.Relations = append(req.Relations, rs)
	}
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	return body
}

// checkCreateBody holds readCreateBody to the reference on data: the
// same accept or reject and, on accept, the same name, workload spec
// and database fingerprint. A key repeated within one object is the
// one divergence: the reader refuses it where the reference merged.
func checkCreateBody(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := referenceCreateBody(data)
	got, gotErr := readCreateBody(data)
	if gotErr != nil && wantErr == nil && errors.Is(gotErr, errRepeatedKey) {
		return
	}
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("body %q: reader error %v, reference error %v", data, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.name != want.name || !reflect.DeepEqual(got.workload, want.workload) {
		t.Fatalf("body %q: reader decoded name %q workload %+v, reference %q %+v",
			data, got.name, got.workload, want.name, want.workload)
	}
	if (got.db == nil) != (want.db == nil) {
		t.Fatalf("body %q: reader database %v, reference %v", data, got.db, want.db)
	}
	if got.db != nil && got.db.Fingerprint() != want.db.Fingerprint() {
		t.Fatalf("body %q: reader built fingerprint %016x, reference %016x",
			data, got.db.Fingerprint(), want.db.Fingerprint())
	}
}

// checkRowsBody holds readRowsBody and build to the reference on data,
// with the tuples built on rowsSchema: the same decode errors (the ones
// answered before the database is looked up), the same relation name
// and, after the look-up, the same build errors and tuples. Besides a
// repeated key, an attribute listed twice is refused where the
// reference kept the last of its values.
func checkRowsBody(t *testing.T, data []byte) {
	t.Helper()
	wantRel, want, wantDecode, wantBuild := referenceRows(data, rowsSchema)
	b, gotDecode := readRowsBody(data)
	if gotDecode != nil && wantDecode == nil && errors.Is(gotDecode, errRepeatedKey) {
		return
	}
	if (gotDecode != nil) != (wantDecode != nil) {
		t.Fatalf("rows body %q: reader decode error %v, reference %v", data, gotDecode, wantDecode)
	}
	if gotDecode != nil {
		return
	}
	if b.relation != wantRel {
		t.Fatalf("rows body %q: reader relation %q, reference %q", data, b.relation, wantRel)
	}
	got, gotBuild := b.build(rowsSchema)
	if gotBuild != nil && wantBuild == nil && strings.Contains(gotBuild.Error(), "listed twice") {
		return
	}
	if (gotBuild != nil) != (wantBuild != nil) {
		t.Fatalf("rows body %q: reader build error %v, reference %v", data, gotBuild, wantBuild)
	}
	if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("rows body %q: reader built %+v, reference %+v", data, got, want)
	}
}

// TestDecodeUploadMatchesReference runs the seed bodies through both
// decoders, and the POST /databases ones through both handlers: the
// same status on every body and, on 201, the same name and
// fingerprint.
func TestDecodeUploadMatchesReference(t *testing.T) {
	bodies := [][]byte{perfbenchBody("pb", mustChain(t, 4, 12, 5))}
	for _, c := range uploadCases {
		bodies = append(bodies, []byte(c))
	}
	for _, body := range bodies {
		checkCreateBody(t, body)
		checkRowsBody(t, body)

		refSvc := service.New(service.Config{})
		wantStatus, wantInfo := referenceCreateStatus(refSvc, body)
		refSvc.Close()
		svc := service.New(service.Config{})
		rec := httptest.NewRecorder()
		newMux(context.Background(), svc).ServeHTTP(rec, httptest.NewRequest("POST", "/databases", bytes.NewReader(body)))
		svc.Close()
		if _, err := readCreateBody(body); errors.Is(err, errRepeatedKey) {
			if rec.Code != http.StatusBadRequest {
				t.Errorf("body %q with a repeated key: status %d, want 400", body, rec.Code)
			}
			continue
		}
		if rec.Code != wantStatus {
			t.Errorf("body %q: status %d (%s), reference %d", body, rec.Code, rec.Body, wantStatus)
			continue
		}
		if rec.Code == http.StatusCreated {
			var info service.DatabaseInfo
			if err := json.Unmarshal(rec.Body.Bytes(), &info); err != nil {
				t.Fatal(err)
			}
			if info.Name != wantInfo.Name || info.Fingerprint != wantInfo.Fingerprint {
				t.Errorf("body %q: registered %+v, reference %+v", body, info, wantInfo)
			}
		}
	}
}

// mustChain generates a chain workload with importances up to 5.
func mustChain(tb testing.TB, relations, tuples, domain int) *relation.Database {
	tb.Helper()
	db, err := workload.Chain(workload.Config{Relations: relations, TuplesPerRelation: tuples,
		Domain: domain, NullRate: 0.1, ImpMax: 5, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return db
}

// FuzzDecodeUpload holds readCreateBody, and readRowsBody with build,
// to the encoding/json reference on arbitrary bodies (see
// checkCreateBody and checkRowsBody). The seed corpus is uploadCases,
// a perfbench-shaped body and testdata/fuzz/FuzzDecodeUpload; run the
// fuzzer with
//
//	go test -run '^$' -fuzz FuzzDecodeUpload -fuzztime 20s ./cmd/fdserve
func FuzzDecodeUpload(f *testing.F) {
	f.Add(perfbenchBody("pb", mustChain(f, 2, 3, 2)))
	for _, body := range uploadCases {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkCreateBody(t, data)
		checkRowsBody(t, data)
	})
}

// TestAppendRowsRepeatedAttribute: a rows body that lists one attribute
// twice is refused naming it, where the values used to land on one
// position, the last silently replacing the first; an oversized rows
// body answers 413.
func TestAppendRowsRepeatedAttribute(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	ts := httptest.NewServer(newServer(context.Background(), svc, 512).handler())
	defer ts.Close()
	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "d", "relations": []map[string]any{
		{"name": "R", "attributes": []string{"A", "B"}, "tuples": []map[string]any{{"values": []string{"a", "b"}}}},
	}}, http.StatusCreated, nil)

	resp := rawCall(t, "POST", ts.URL+"/databases/d/rows",
		`{"relation":"R","attributes":["A","A"],"tuples":[{"values":["x","y"]}]}`)
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, `"A"`) {
		t.Fatalf("repeated attribute: status %d, error %q; want 400 naming \"A\"", resp.StatusCode, e.Error)
	}
	if db, _ := svc.Database("d"); db.NumTuples() != 1 {
		t.Fatalf("the refused append changed the database: %d tuples, want 1", db.NumTuples())
	}

	big := `{"relation":"R","tuples":[{"values":["` + strings.Repeat("x", 600) + `",null]}]}`
	if resp := rawCall(t, "POST", ts.URL+"/databases/d/rows", big); resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized rows body: status %d, want 413", resp.StatusCode)
	}
}

// BenchmarkDecodeUpload decodes and builds the upload body of a 4×288
// chain (the database of BenchmarkRenderPage, with importances) the
// reference way and with readCreateBody, reporting time and
// allocations per uploaded tuple.
func BenchmarkDecodeUpload(b *testing.B) {
	body := perfbenchBody("chain", mustChain(b, 4, 288, 230))
	const tuples = 4 * 288
	for _, bc := range []struct {
		name   string
		decode func([]byte) (createBody, error)
	}{{"reference", referenceCreateBody}, {"reader", readCreateBody}} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			n := 0
			for b.Loop() {
				if _, err := bc.decode(body); err != nil {
					b.Fatal(err)
				}
				n++
			}
			runtime.ReadMemStats(&after)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(n*tuples), "ns/tuple")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(n*tuples), "allocs/tuple")
		})
	}
}
