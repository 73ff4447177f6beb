package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

// startServer spins up the HTTP surface over a fresh service.
func startServer(t *testing.T) (*httptest.Server, *service.Service) {
	t.Helper()
	svc := service.New(service.Config{})
	ts := httptest.NewServer(newMux(context.Background(), svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

// call issues a JSON request and decodes the response into out.
func call(t *testing.T, method, url string, body any, wantStatus int, out any) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e map[string]any
		json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %v", method, url, resp.StatusCode, wantStatus, e)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
}

// chainSpec is the workload used across the tests; its one-shot result
// count is computed in-process as the reference.
var chainSpec = map[string]any{
	"kind": "chain", "relations": 4, "tuples": 10, "domain": 3,
	"null_rate": 0.1, "seed": 7,
}

func chainCount(t *testing.T) int {
	t.Helper()
	db, err := workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 10, Domain: 3, NullRate: 0.1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sets, _, err := core.FullDisjunction(db, core.JCC, core.Options{UseIndex: true})
	if err != nil {
		t.Fatal(err)
	}
	return len(sets)
}

// TestServeWalkthrough is the end-to-end session of the acceptance
// criteria: load a workload, page a query to exhaustion in odd-sized
// pages, compare the total against the one-shot API, then repeat the
// query and observe the cache hit via /stats.
func TestServeWalkthrough(t *testing.T) {
	ts, _ := startServer(t)
	want := chainCount(t)

	var info service.DatabaseInfo
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, &info)
	if info.Relations != 4 || info.Tuples != 40 || info.Fingerprint == "" {
		t.Fatalf("unexpected database info: %+v", info)
	}

	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &q)
	if q.Cached {
		t.Fatal("first query reported cached")
	}

	total := 0
	for {
		var page pageResponse
		call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=7", ts.URL, q.ID), nil, http.StatusOK, &page)
		total += len(page.Results)
		for _, r := range page.Results {
			if r.Set == "" || len(r.Values) == 0 {
				t.Fatalf("malformed result %+v", r)
			}
		}
		if page.Done {
			if page.Served != total {
				t.Fatalf("served %d, accumulated %d", page.Served, total)
			}
			break
		}
	}
	if total != want {
		t.Fatalf("paged total %d, one-shot %d", total, want)
	}

	// The repeated identical query is served from the cache.
	var q2 createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &q2)
	if !q2.Cached {
		t.Fatal("repeated query not served from cache")
	}
	var page pageResponse
	call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=%d", ts.URL, q2.ID, want+10), nil, http.StatusOK, &page)
	if len(page.Results) != want || !page.Done {
		t.Fatalf("cached page returned %d results (done=%v), want %d", len(page.Results), page.Done, want)
	}

	var stats service.Stats
	call(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if stats.CacheHits != 1 || stats.CacheMisses != 1 {
		t.Fatalf("stats hits=%d misses=%d, want 1/1", stats.CacheHits, stats.CacheMisses)
	}
	if stats.ResultsServed != int64(2*want) {
		t.Fatalf("results served %d, want %d", stats.ResultsServed, 2*want)
	}
}

// TestServeRankedAndApprox exercises the other two modes end to end.
func TestServeRankedAndApprox(t *testing.T) {
	ts, _ := startServer(t)
	call(t, "POST", ts.URL+"/databases", map[string]any{
		"name": "w",
		"workload": map[string]any{
			"kind": "star", "relations": 4, "tuples": 8, "domain": 3, "imp_max": 50, "seed": 3},
	}, http.StatusCreated, nil)

	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "ranked", "rank": "fmax"}, http.StatusCreated, &q)
	last := -1.0
	for {
		var page pageResponse
		call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=5", ts.URL, q.ID), nil, http.StatusOK, &page)
		for _, r := range page.Results {
			if r.Rank == nil {
				t.Fatal("ranked result missing rank")
			}
			if last >= 0 && *r.Rank > last {
				t.Fatalf("ranks not non-increasing: %v after %v", *r.Rank, last)
			}
			last = *r.Rank
		}
		if page.Done {
			break
		}
	}

	call(t, "POST", ts.URL+"/databases", map[string]any{
		"name": "dirty",
		"workload": map[string]any{
			"kind": "dirty", "relations": 3, "tuples": 8, "domain": 3, "error_rate": 0.3, "seed": 5},
	}, http.StatusCreated, nil)
	var qa createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "dirty", "mode": "approx", "tau": 0.7}, http.StatusCreated, &qa)
	var page pageResponse
	call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=1000", ts.URL, qa.ID), nil, http.StatusOK, &page)
	if !page.Done || len(page.Results) == 0 {
		t.Fatalf("approx query: done=%v results=%d", page.Done, len(page.Results))
	}

	// Approx-ranked over the wire: the fd.Query JSON encoding carries
	// mode, tau, rank and the k bound in one request.
	var qar createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "dirty", "mode": "approx-ranked", "tau": 0.6, "rank": "fmax", "k": 4},
		http.StatusCreated, &qar)
	last = -1.0
	total := 0
	for {
		var arPage pageResponse
		call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=2", ts.URL, qar.ID), nil, http.StatusOK, &arPage)
		for _, r := range arPage.Results {
			if r.Rank == nil {
				t.Fatal("approx-ranked result missing rank")
			}
			if last >= 0 && *r.Rank > last {
				t.Fatalf("approx-ranked ranks not non-increasing: %v after %v", *r.Rank, last)
			}
			last = *r.Rank
			total++
		}
		if arPage.Done {
			break
		}
	}
	if total == 0 || total > 4 {
		t.Fatalf("approx-ranked k=4 served %d results", total)
	}
}

// TestServeUploadedRows loads the paper's two-relation example as
// explicit rows, with a null, and checks the padded rendering.
func TestServeUploadedRows(t *testing.T) {
	ts, _ := startServer(t)
	null := (*string)(nil)
	v := func(s string) *string { return &s }
	call(t, "POST", ts.URL+"/databases", map[string]any{
		"name": "tiny",
		"relations": []map[string]any{
			{"name": "Climates", "attributes": []string{"Country", "Climate"},
				"tuples": []map[string]any{
					{"label": "c1", "values": []*string{v("Canada"), v("diverse")}},
					{"label": "c2", "values": []*string{v("Laos"), null}},
				}},
			{"name": "Hotels", "attributes": []string{"Country", "Hotel"},
				"tuples": []map[string]any{
					{"label": "a1", "values": []*string{v("Canada"), v("Plaza")}},
				}},
		},
	}, http.StatusCreated, nil)

	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries", map[string]any{"database": "tiny"}, http.StatusCreated, &q)
	var page pageResponse
	call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=100", ts.URL, q.ID), nil, http.StatusOK, &page)
	if !page.Done || len(page.Results) != 2 {
		t.Fatalf("tiny FD: done=%v results=%d, want 2", page.Done, len(page.Results))
	}
	joined := false
	for _, r := range page.Results {
		if r.Set == "{c1, a1}" {
			joined = true
			if got := r.Values["Hotel"]; got == nil || *got != "Plaza" {
				t.Fatalf("joined result values: %v", r.Values)
			}
			if got := r.Values["Climate"]; got == nil || *got != "diverse" {
				t.Fatalf("joined result values: %v", r.Values)
			}
		}
	}
	if !joined {
		t.Fatalf("no joined {c1, a1} result in %+v", page.Results)
	}
}

// TestServeErrors covers the failure surface: malformed loads, unknown
// databases/queries/modes, and closed sessions.
func TestServeErrors(t *testing.T) {
	ts, _ := startServer(t)

	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "x"}, http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "", "workload": chainSpec},
		http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "x", "workload": map[string]any{"kind": "nope"}},
		http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "w", "workload": chainSpec},
		http.StatusCreated, nil)
	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "w", "workload": chainSpec},
		http.StatusConflict, nil)

	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "missing"}, http.StatusNotFound, nil)
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "ranked", "rank": "nope"}, http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "options": map[string]any{"strategy": "nope"}},
		http.StatusBadRequest, nil)

	call(t, "GET", ts.URL+"/queries/q999/next", nil, http.StatusNotFound, nil)
	call(t, "DELETE", ts.URL+"/queries/q999", nil, http.StatusNotFound, nil)

	call(t, "DELETE", ts.URL+"/databases/missing", nil, http.StatusNotFound, nil)
	call(t, "DELETE", ts.URL+"/databases/w", nil, http.StatusNoContent, nil)
	// Dropped: reload under the same name succeeds.
	call(t, "POST", ts.URL+"/databases", map[string]any{"name": "w", "workload": chainSpec},
		http.StatusCreated, nil)

	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries", map[string]any{"database": "w"}, http.StatusCreated, &q)
	call(t, "DELETE", ts.URL+"/queries/"+q.ID, nil, http.StatusNoContent, nil)
	call(t, "GET", fmt.Sprintf("%s/queries/%s/next", ts.URL, q.ID), nil, http.StatusNotFound, nil)

	call(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
}

// startDurableServer spins up the HTTP surface over a service backed by
// the given data directory.
func startDurableServer(t *testing.T, dir string) (*httptest.Server, *service.Service) {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc := service.New(service.Config{Store: st})
	if _, err := svc.Recover(); err != nil {
		t.Fatalf("recover: %v", err)
	}
	ts := httptest.NewServer(newMux(context.Background(), svc))
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc
}

func pageAll(t *testing.T, baseURL, id string) int {
	t.Helper()
	total := 0
	for {
		var page pageResponse
		call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=7", baseURL, id), nil, http.StatusOK, &page)
		total += len(page.Results)
		if page.Done {
			return total
		}
	}
}

// TestServeDurableRestart is the acceptance scenario over the HTTP
// surface: register against -data, restart the whole stack over the
// same directory, and demand the same fingerprint and result count
// with zero re-registration.
func TestServeDurableRestart(t *testing.T) {
	dir := t.TempDir()
	want := chainCount(t)

	ts1, svc1 := startDurableServer(t, dir)
	var info service.DatabaseInfo
	call(t, "POST", ts1.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, &info)
	var q createQueryResponse
	call(t, "POST", ts1.URL+"/queries", map[string]any{"database": "w"}, http.StatusCreated, &q)
	if got := pageAll(t, ts1.URL, q.ID); got != want {
		t.Fatalf("pre-restart count %d, want %d", got, want)
	}
	ts1.Close()
	svc1.Close()

	ts2, _ := startDurableServer(t, dir)
	var listing listDatabasesResponse
	call(t, "GET", ts2.URL+"/databases", nil, http.StatusOK, &listing)
	listed := listing.Databases
	if len(listed) != 1 || listed[0] != info {
		t.Fatalf("recovered listing %+v, want [%+v]", listed, info)
	}
	if len(listing.Quarantined) != 0 {
		t.Fatalf("clean recovery reported quarantines: %+v", listing.Quarantined)
	}
	var q2 createQueryResponse
	call(t, "POST", ts2.URL+"/queries", map[string]any{"database": "w"}, http.StatusCreated, &q2)
	if got := pageAll(t, ts2.URL, q2.ID); got != want {
		t.Fatalf("post-restart count %d, want %d", got, want)
	}
}

func TestServeAppendRows(t *testing.T) {
	dir := t.TempDir()
	ts, _ := startDurableServer(t, dir)

	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)
	var beforeList listDatabasesResponse
	call(t, "GET", ts.URL+"/databases", nil, http.StatusOK, &beforeList)
	before := beforeList.Databases

	// The chain workload's relations share attributes J0..; fetch the
	// schema indirectly by appending with explicit nulls only.
	v := "fresh"
	var info service.DatabaseInfo
	call(t, "POST", ts.URL+"/databases/w/rows", map[string]any{
		"relation": "R00",
		"tuples":   []map[string]any{{"label": "x1", "values": []*string{&v, nil}}},
	}, http.StatusOK, &info)
	if info.Tuples != before[0].Tuples+1 {
		t.Fatalf("append reported %d tuples, want %d", info.Tuples, before[0].Tuples+1)
	}
	if info.Fingerprint == before[0].Fingerprint {
		t.Fatal("append did not change the fingerprint")
	}

	// Appended rows survive a restart (replayed from the row log).
	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries", map[string]any{"database": "w"}, http.StatusCreated, &q)
	preCount := pageAll(t, ts.URL, q.ID)

	ts2, _ := startDurableServer(t, dir)
	var listing2 listDatabasesResponse
	call(t, "GET", ts2.URL+"/databases", nil, http.StatusOK, &listing2)
	listed := listing2.Databases
	if len(listed) != 1 || listed[0] != info {
		t.Fatalf("restart after append listed %+v, want [%+v]", listed, info)
	}
	var q2 createQueryResponse
	call(t, "POST", ts2.URL+"/queries", map[string]any{"database": "w"}, http.StatusCreated, &q2)
	if got := pageAll(t, ts2.URL, q2.ID); got != preCount {
		t.Fatalf("post-restart count %d, want %d", got, preCount)
	}

	// Error surface: unknown database, unknown relation, bad widths.
	call(t, "POST", ts.URL+"/databases/nope/rows", map[string]any{
		"relation": "R00", "tuples": []map[string]any{}}, http.StatusNotFound, nil)
	call(t, "POST", ts.URL+"/databases/w/rows", map[string]any{
		"relation": "nope", "tuples": []map[string]any{}}, http.StatusNotFound, nil)
	call(t, "POST", ts.URL+"/databases/w/rows", map[string]any{
		"relation": "R00",
		"tuples":   []map[string]any{{"values": []*string{&v}}}}, http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/databases/w/rows", map[string]any{
		"relation": "R00", "attributes": []string{"nope"},
		"tuples": []map[string]any{{"values": []*string{&v}}}}, http.StatusBadRequest, nil)
	call(t, "POST", ts.URL+"/databases/w/rows", map[string]any{
		"relation": "R00", "tuples": []map[string]any{}}, http.StatusBadRequest, nil)
}

// TestServeIndexDefaults pins that the server runs the one engine
// configuration of fd.Open: a query naming no options engages the join
// index, and a body that tries to switch an index off or pick an
// initialisation strategy is rejected with 400 instead of being run
// some other way.
func TestServeIndexDefaults(t *testing.T) {
	ts, _ := startServer(t)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)

	for _, opts := range []map[string]any{
		{"use_index": false},
		{"use_join_index": false},
		{"strategy": "seeded"},
	} {
		call(t, "POST", ts.URL+"/queries",
			map[string]any{"database": "w", "mode": "exact", "options": opts}, http.StatusBadRequest, nil)
		call(t, "POST", ts.URL+"/explain",
			map[string]any{"database": "w", "mode": "exact", "options": opts}, http.StatusBadRequest, nil)
	}

	var q createQueryResponse
	call(t, "POST", ts.URL+"/queries", map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &q)
	for {
		var page pageResponse
		call(t, "GET", fmt.Sprintf("%s/queries/%s/next?k=64", ts.URL, q.ID), nil, http.StatusOK, &page)
		if page.Done {
			break
		}
	}
	var stats service.Stats
	call(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if stats.Engine.IndexProbes == 0 {
		t.Fatal("options-free query ran unindexed: no join-index probes recorded")
	}
}

// TestServeRankOverflow: a ranked query whose rank overflows to +Inf
// (PairSum of two #imp 1e308 tuples) fails at create with the open
// error status and a message naming the set, instead of a page the
// renderer cannot write.
func TestServeRankOverflow(t *testing.T) {
	ts, _ := startServer(t)
	rel := func(name, label string) map[string]any {
		return map[string]any{"name": name, "attributes": []string{"A"},
			"tuples": []map[string]any{{"label": label, "imp": 1e308, "values": []string{"x"}}}}
	}
	call(t, "POST", ts.URL+"/databases", map[string]any{
		"name": "huge", "relations": []map[string]any{rel("R", "a1"), rel("S", "b1")},
	}, http.StatusCreated, nil)
	body, err := json.Marshal(map[string]any{"database": "huge", "mode": "ranked", "rank": "pairsum", "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/queries", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var e struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, "{a1, b1}") {
		t.Fatalf("create: status %d error %q, want 400 naming {a1, b1}", resp.StatusCode, e.Error)
	}
}
