package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// The reference rendering: how fdserve encoded results through
// encoding/json before service.AppendPage wrote pages from codes. The
// tests hold AppendPage and the follow stream's result lines to it byte
// for byte, and the other tests decode pages with pageResponse.

type resultJSON struct {
	// Set is the tuple-set notation of the paper's Table 2, e.g.
	// "{c1, a2}".
	Set  string   `json:"set"`
	Rank *float64 `json:"rank,omitempty"`
	// Values is the padded tuple over the database's full attribute
	// universe; null values are JSON nulls.
	Values map[string]*string `json:"values"`
}

type pageResponse struct {
	Results []resultJSON `json:"results"`
	Done    bool         `json:"done"`
	Served  int          `json:"served"`
}

// renderResult renders one result over the database and universe it is
// bound to — the session's own for base pages, the extended database's
// for delta results arriving on a follow stream (whose sets reference
// appended tuples the base universe cannot format).
func renderResult(db *relation.Database, u *tupleset.Universe, attrs []relation.Attribute, res service.Result) resultJSON {
	rj := resultJSON{
		Set:    res.Set.Format(db),
		Values: make(map[string]*string, len(attrs)),
	}
	if res.Ranked {
		rank := res.Rank
		rj.Rank = &rank
	}
	padded := u.PadOver(res.Set, attrs)
	for j, a := range padded.Attrs {
		if padded.Values[j].IsNull() {
			rj.Values[string(a)] = nil
			continue
		}
		datum := padded.Values[j].Datum()
		rj.Values[string(a)] = &datum
	}
	return rj
}

// referencePage is the page body the reference wrote for page.
func referencePage(u *tupleset.Universe, page []service.Result, done bool, served int) ([]byte, error) {
	attrs := u.AllAttributes()
	out := pageResponse{Results: make([]resultJSON, len(page)), Done: done, Served: served}
	for i, res := range page {
		out.Results[i] = renderResult(u.DB, u, attrs, res)
	}
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(out)
	return buf.Bytes(), err
}

// referenceResultLine is the follow-stream "result" line the reference
// wrote for res.
func referenceResultLine(u *tupleset.Universe, res service.Result) ([]byte, error) {
	var buf bytes.Buffer
	rj := renderResult(u.DB, u, u.AllAttributes(), res)
	err := json.NewEncoder(&buf).Encode(map[string]any{"event": "result", "result": rj})
	return buf.Bytes(), err
}

// nastyDatabase is an upload whose names, labels and datums need every
// escape encoding/json applies to valid UTF-8 (quotes, backslashes,
// control bytes, HTML characters, U+2028/U+2029), with unlabeled
// tuples, ⊥, near-miss join values for the approx modes, and
// importances whose fmax ranks print in both of encoding/json's float
// forms.
func nastyDatabase() map[string]any {
	v := func(s string) *string { return &s }
	row := func(label string, imp float64, vals ...*string) map[string]any {
		return map[string]any{"label": label, "imp": imp, "values": vals}
	}
	return map[string]any{
		"name": "nasty",
		"relations": []map[string]any{
			{"name": "Cities<&>", "attributes": []string{"Country", "City\u2028"},
				"tuples": []map[string]any{
					row("c<1>", 1e-7, v("Canada"), v(`Tor"onto`)),
					row("", 2.5e21, v("Laos"), nil),
					row("c\t3", 0.3, v("Canadá"), v("Lyon\u2029")),
				}},
			{"name": `Hotels\`, "attributes": []string{"Country", "Hotel&"},
				"tuples": []map[string]any{
					row(`h\1`, 1e-6, v("Canada"), v("Plaza<b>")),
					row("", 123456789, v("Canad"), v("Ritz\x01\x1f")),
					row("hé", 1e20, nil, v("Inn")),
				}},
			{"name": "Climates", "attributes": []string{"Country", "Climate"},
				"tuples": []map[string]any{
					row("k1", 0.5, v("Laos"), v("hot & humid")),
					row("k\n2", 7, v("Canada"), v("cold\r\n")),
				}},
		},
	}
}

// TestPageBytesMatchReference holds every served page, and every
// "result" line of a follow stream across an append, to the reference
// rendering of the same results, byte for byte: exact, ranked, approx
// and approx-ranked queries at Workers 1 and 2 and page sizes 1, 10 and
// 1024. The results of each page are the session's own, read back from
// the result cache its drain filled.
func TestPageBytesMatchReference(t *testing.T) {
	ts, svc := startServer(t)
	call(t, "POST", ts.URL+"/databases", nastyDatabase(), http.StatusCreated, nil)
	ctx := context.Background()

	queries := []fd.Query{
		{Mode: fd.ModeExact},
		{Mode: fd.ModeRanked, Rank: "fmax"},
		{Mode: fd.ModeApprox, Tau: 0.5},
		{Mode: fd.ModeApproxRanked, Rank: "fmax", Tau: 0.5},
	}
	for _, spec := range queries {
		for _, workers := range []int{1, 2} {
			for _, k := range []int{1, 10, 1024} {
				spec.Options.Workers = workers
				name := fmt.Sprintf("%s/workers=%d/k=%d", spec.Mode, workers, k)
				var created createQueryResponse
				call(t, "POST", ts.URL+"/queries",
					createQueryRequest{Database: "nasty", Query: spec}, http.StatusCreated, &created)
				var bodies [][]byte
				var pages []pageResponse
				for {
					body := getBody(t, fmt.Sprintf("%s/queries/%s/next?k=%d", ts.URL, created.ID, k))
					var page pageResponse
					if err := json.Unmarshal(body, &page); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					bodies, pages = append(bodies, body), append(pages, page)
					if page.Done {
						break
					}
				}

				results := cachedResults(t, ctx, svc, spec)
				off := 0
				for i, body := range bodies {
					page := pages[i]
					n := len(page.Results)
					if off+n > len(results.all) {
						t.Fatalf("%s: pages hold more than the %d cached results", name, len(results.all))
					}
					want, err := referencePage(results.u, results.all[off:off+n], page.Done, page.Served)
					if err != nil {
						t.Fatalf("%s: reference: %v", name, err)
					}
					if !bytes.Equal(body, want) {
						t.Fatalf("%s: page %d differs from the reference\n got: %s\nwant: %s", name, i, body, want)
					}
					off += n
				}
				if off != len(results.all) || off == 0 {
					t.Fatalf("%s: pages held %d results, cache %d", name, off, len(results.all))
				}
			}
		}
	}

	checkFollowLines(t, ts.URL, svc)
}

// checkFollowLines follows the exact query over the nasty database
// across one append and holds each "result" line to the reference:
// base lines to the cached base results in order, delta lines to the
// extended database's result of the same set notation.
func checkFollowLines(t *testing.T, baseURL string, svc *service.Service) {
	t.Helper()
	ctx := context.Background()
	var created createQueryResponse
	call(t, "POST", baseURL+"/queries",
		map[string]any{"database": "nasty", "follow": true}, http.StatusCreated, &created)
	resp, err := http.Get(fmt.Sprintf("%s/queries/%s/follow?appends=1", baseURL, created.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	lines := bufio.NewReader(resp.Body)
	next := func() ([]byte, string) {
		line, err := lines.ReadBytes('\n')
		if err != nil {
			t.Fatalf("follow stream: %v after %q", err, line)
		}
		var ev struct {
			Event string `json:"event"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("follow line %q: %v", line, err)
		}
		return line, ev.Event
	}

	// The session's base drain fills the cache before the "live" line.
	var baseLines [][]byte
	for {
		line, event := next()
		if event == "live" {
			break
		}
		baseLines = append(baseLines, line)
	}
	base := cachedResults(t, ctx, svc, fd.Query{})
	if len(baseLines) != len(base.all) {
		t.Fatalf("follow base held %d results, cache %d", len(baseLines), len(base.all))
	}
	for i, line := range baseLines {
		want, err := referenceResultLine(base.u, base.all[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("base line %d differs from the reference\n got: %s\nwant: %s", i, line, want)
		}
	}

	null := (*string)(nil)
	v := func(s string) *string { return &s }
	call(t, "POST", baseURL+"/databases/nasty/rows", map[string]any{
		"relation": `Hotels\`,
		"tuples": []map[string]any{
			{"label": "n<ew>\u2028", "values": []*string{v("Laos"), v("Hôtel\"\\")}},
			{"values": []*string{v("Laos"), null}},
		},
	}, http.StatusOK, nil)

	extended := cachedResults(t, ctx, svc, fd.Query{})
	byNotation := make(map[string]service.Result, len(extended.all))
	for _, res := range extended.all {
		byNotation[res.Set.Format(extended.u.DB)] = res
	}
	deltaLines := 0
	for {
		line, event := next()
		if event == "end" {
			break
		}
		if event != "result" {
			continue
		}
		var ev struct {
			Result resultJSON `json:"result"`
		}
		json.Unmarshal(line, &ev)
		res, ok := byNotation[ev.Result.Set]
		if !ok {
			t.Fatalf("delta result %q is not a result of the extended database", ev.Result.Set)
		}
		want, err := referenceResultLine(extended.u, res)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Fatalf("delta line differs from the reference\n got: %s\nwant: %s", line, want)
		}
		deltaLines++
	}
	if deltaLines == 0 {
		t.Fatal("the append produced no delta result lines")
	}
}

// sessionResults is a session's drained results and the universe they
// are bound to.
type sessionResults struct {
	u   *tupleset.Universe
	all []service.Result
}

// cachedResults drains spec over the nasty database through a service
// session that must be a cache hit, so its results are those an earlier
// session served, in the order it served them.
func cachedResults(t *testing.T, ctx context.Context, svc *service.Service, spec fd.Query) sessionResults {
	t.Helper()
	q, err := svc.StartQuery(ctx, "nasty", spec)
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if !q.FromCache() {
		t.Fatalf("query %+v missed the cache", spec)
	}
	out := sessionResults{u: q.Universe()}
	for {
		page, done, err := q.Next(1024)
		if err != nil {
			t.Fatal(err)
		}
		out.all = append(out.all, page...)
		if done {
			return out
		}
	}
}

// getBody GETs url, expecting 200, and returns the raw body.
func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// fuzzRanks are the ranks a fuzz input picks from: both float forms and
// their boundaries, negatives, and the values with no JSON number.
var fuzzRanks = []float64{0, math.Copysign(0, -1), 1, 0.3, -2.5, 1e-6, 1e-7, -1e-7, 1e20, 1e21, 123456789.125,
	math.SmallestNonzeroFloat64, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}

// FuzzRenderPage decodes tiny databases whose relation names,
// attribute names, labels and datums are arbitrary bytes (invalid UTF-8
// included), with unlabeled tuples and ⊥, drains their exact full
// disjunction, attaches arbitrary ranks, and holds service.AppendPage
// to the reference rendering byte for byte — including failing exactly
// when the reference does (a NaN or infinite rank). The seed corpus is
// testdata/fuzz/FuzzRenderPage; run the fuzzer with
//
//	go test -run '^$' -fuzz FuzzRenderPage -fuzztime 20s ./cmd/fdserve
func FuzzRenderPage(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		db := fuzzRenderDB(data)
		if db == nil {
			return
		}
		rs, err := fd.Open(context.Background(), db, fd.Query{Options: fd.QueryOptions{Workers: 1}})
		if err != nil {
			t.Fatal(err)
		}
		defer rs.Close()
		var page []service.Result
		for i := 0; ; i++ {
			res, ok := rs.Next()
			if !ok {
				break
			}
			if i < len(data) {
				if b := data[len(data)-1-i]; b&1 == 1 {
					res.Ranked, res.Rank = true, fuzzRanks[int(b>>1)%len(fuzzRanks)]
				}
			}
			page = append(page, res)
		}
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		u := tupleset.NewUniverse(db)
		for _, done := range []bool{false, true} {
			want, wantErr := referencePage(u, page, done, len(page))
			got, gotErr := service.AppendPage([]byte("kept"), u, page, done, len(page))
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("reference error %v, AppendPage error %v", wantErr, gotErr)
			}
			if wantErr == nil && !bytes.Equal(got, append([]byte("kept"), want...)) {
				t.Fatalf("AppendPage differs from the reference\n got: %q\nwant: %q", got, want)
			}
		}
		for _, res := range page {
			want, wantErr := referenceResultLine(u, res)
			got, gotErr := service.AppendResult(nil, u, res)
			if (wantErr != nil) != (gotErr != nil) {
				t.Fatalf("reference error %v, AppendResult error %v", wantErr, gotErr)
			}
			if wantErr == nil && !bytes.Equal(append(append([]byte(`{"event":"result","result":`), got...), "}\n"...), want) {
				t.Fatalf("AppendResult differs from the reference line\n got: %q\nwant: %q", got, want)
			}
		}
	})
}

// fuzzRenderDB decodes data into a database of 1–3 relations over a
// pool of three attribute names, each relation holding 1–3 tuples whose
// values come from a pool of three datums (or ⊥), so tuples join. Names,
// labels and datums are byte strings read from data (length byte, then
// bytes); an empty label leaves the tuple unlabeled. It returns nil when
// the decoded names collide.
func fuzzRenderDB(data []byte) *relation.Database {
	in := fuzzBytes(data)
	str := func() string {
		n := in.next() % 6
		var b strings.Builder
		for range n {
			b.WriteByte(byte(in.next()))
		}
		return b.String()
	}
	attrs := []relation.Attribute{relation.Attribute(str()), relation.Attribute(str()), relation.Attribute(str())}
	datums := []string{str(), str(), str()}
	rels := make([]*relation.Relation, 1+in.next()%3)
	for i := range rels {
		mask := 1 + in.next()%7 // a non-empty subset of the attribute pool
		var schema []relation.Attribute
		for a := range attrs {
			if mask&(1<<a) != 0 {
				schema = append(schema, attrs[a])
			}
		}
		s, err := relation.NewSchema(schema...)
		if err != nil {
			return nil
		}
		if rels[i], err = relation.NewRelation(str(), s); err != nil {
			return nil
		}
		for range 1 + in.next()%3 {
			t := relation.Tuple{Label: str(), Imp: 1, Prob: 1, Values: make([]relation.Value, s.Len())}
			for p := range t.Values {
				if d := in.next() % 4; d > 0 {
					t.Values[p] = relation.V(datums[d-1])
				}
			}
			if err := rels[i].AppendTuple(t); err != nil {
				return nil
			}
		}
	}
	db, err := relation.NewDatabase(rels...)
	if err != nil {
		return nil
	}
	return db
}

// fuzzBytes reads a fuzz input one byte at a time, yielding zeros once
// it is exhausted, so every input decodes to some database.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// BenchmarkRenderPage renders one 1,024-result exact page of a 4×288
// chain (the shape of perfbench's cold-drain exact-chain query) the
// reference way and through service.AppendPage into a reused buffer,
// as fdserve's handler does.
func BenchmarkRenderPage(b *testing.B) {
	db, err := workload.Chain(workload.Config{Relations: 4, TuplesPerRelation: 288, Domain: 230, NullRate: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := fd.Open(context.Background(), db, fd.Query{Options: fd.QueryOptions{Workers: 1}})
	if err != nil {
		b.Fatal(err)
	}
	var page []service.Result
	for len(page) < 1024 {
		res, ok := rs.Next()
		if !ok {
			b.Fatalf("the chain has only %d results", len(page))
		}
		page = append(page, res)
	}
	rs.Close()
	u := tupleset.NewUniverse(db)

	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			if _, err := referencePage(u, page, false, len(page)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		var buf []byte
		for b.Loop() {
			if buf, err = service.AppendPage(buf[:0], u, page, false, len(page)); err != nil {
				b.Fatal(err)
			}
		}
	})
}
