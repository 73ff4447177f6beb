package main

// Handler error-path tests: malformed and oversized bodies, a
// panicking handler behind the recovery middleware, and admission
// overload surfacing as 503 + Retry-After.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	fd "repro"
	"repro/internal/service"
)

// rawCall posts a raw (possibly invalid) body and returns the response.
func rawCall(t *testing.T, method, url, body string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestMalformedBodies checks that every undecodable body is a 400 with
// a JSON error naming the problem. Decoding is strict: a field the
// request shape does not declare (the removed block_size, use_index,
// use_join_index and strategy options included) and any data after
// the JSON value are rejected, where a lenient decoder would run the
// query without them.
func TestMalformedBodies(t *testing.T) {
	ts, _ := startServer(t)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": map[string]any{"kind": "chain",
			"relations": 2, "tuples": 2, "domain": 2}}, http.StatusCreated, nil)
	for _, tc := range []struct{ path, body, want string }{
		{"/databases", `{"name": "x", "workload": `, "unexpected EOF"},
		{"/databases", `not json at all`, "invalid character"},
		{"/queries", `{"database": 42`, "unexpected EOF"},
		{"/databases/w/rows", `[]`, "cannot unmarshal array"},
		{"/queries", `{"database":"w","options":{"block_size":4}}`, `unknown field "block_size"`},
		{"/explain", `{"database":"w","options":{"block_size":4}}`, `unknown field "block_size"`},
		{"/queries", `{"database":"w","options":{"use_index":false}}`, `unknown field "use_index"`},
		{"/queries", `{"database":"w","options":{"use_join_index":true}}`, `unknown field "use_join_index"`},
		{"/queries", `{"database":"w","options":{"strategy":"seeded"}}`, `unknown field "strategy"`},
		{"/explain", `{"database":"w","options":{"strategy":"projected"}}`, `unknown field "strategy"`},
		{"/queries", `{"database":"w","mdoe":"exact"}`, `unknown field "mdoe"`},
		{"/databases", `{"name":"x","workload":{"kind":"chain","tupels":2}}`, `unknown field "tupels"`},
		{"/queries", `{"database":"w"} garbage`, "trailing data"},
		{"/queries", `{"database":"w"} {"mode":"bogus"}`, "trailing data"},
		{"/queries", `{"database":"w"}}`, "trailing data"},
	} {
		resp := rawCall(t, "POST", ts.URL+tc.path, tc.body)
		var e errorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatalf("POST %s %s: error body not JSON (%v)", tc.path, tc.body, err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
			t.Errorf("POST %s %s: status %d, error %q; want 400 mentioning %q",
				tc.path, tc.body, resp.StatusCode, e.Error, tc.want)
		}
	}
	// Known fields and trailing whitespace are fine.
	body := "{\"database\":\"w\",\"mode\":\"exact\",\"options\":{\"workers\":1}}\n\t "
	if resp := rawCall(t, "POST", ts.URL+"/queries", body); resp.StatusCode != http.StatusCreated {
		t.Errorf("valid body: status %d, want 201", resp.StatusCode)
	}
}

// TestQueryOptionsMirror checks that the wire request carries the
// library spec itself: every serialisable field of fd.Query, the
// options included, decodes strictly from its JSON encoding into the
// same Query, so a field added to fd.Query reaches the server without
// a mirror to update.
func TestQueryOptionsMirror(t *testing.T) {
	for _, q := range []fd.Query{
		{Mode: fd.ModeExact, K: 3, Follow: true, Options: fd.QueryOptions{Workers: 2}},
		{Mode: fd.ModeApproxRanked, Rank: "pairsum", Tau: 0.7, RankTau: 2, Sim: "exact"},
	} {
		doc, err := json.Marshal(createQueryRequest{Database: "w", Query: q})
		if err != nil {
			t.Fatal(err)
		}
		dec := json.NewDecoder(strings.NewReader(string(doc)))
		dec.DisallowUnknownFields()
		var back createQueryRequest
		if err := dec.Decode(&back); err != nil {
			t.Fatalf("strict decode of %s: %v", doc, err)
		}
		if back.Database != "w" || !reflect.DeepEqual(back.Query, q) {
			t.Errorf("wire round trip of %+v gave %+v (via %s)", q, back, doc)
		}
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := newServer(context.Background(), svc, 128)
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	big := `{"name": "x", "relations": [{"name": "` + strings.Repeat("r", 200) + `"}]}`
	resp := rawCall(t, "POST", ts.URL+"/databases", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// A body within the cap still works.
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": map[string]any{"kind": "chain",
			"relations": 2, "tuples": 2, "domain": 2}}, http.StatusCreated, nil)
}

func TestPanicRecoveryKeepsServing(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	srv := newServer(context.Background(), svc, defaultMaxBody)
	mux := srv.routes()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("synthetic handler failure")
	})
	ts := httptest.NewServer(srv.withRecovery(mux))
	defer ts.Close()

	resp := rawCall(t, "GET", ts.URL+"/boom", "")
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking handler: status %d, want 500", resp.StatusCode)
	}
	var e errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil || e.Error == "" {
		t.Fatalf("panic response not a JSON error (%v)", err)
	}

	// The incident is counted and the server keeps serving.
	var stats statsResponse
	call(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if stats.PanicsRecovered != 1 {
		t.Fatalf("panics_recovered = %d, want 1", stats.PanicsRecovered)
	}
	call(t, "GET", ts.URL+"/healthz", nil, http.StatusOK, nil)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)
	rawCall(t, "GET", ts.URL+"/boom", "")
	call(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if stats.PanicsRecovered != 2 {
		t.Fatalf("panics_recovered = %d, want 2", stats.PanicsRecovered)
	}
}

func TestOverloadSheds503(t *testing.T) {
	// One worker, minimal patience: concurrent heavy pages must shed
	// with 503 + Retry-After instead of queueing without bound.
	svc := service.New(service.Config{Workers: 1, AdmissionTimeout: time.Millisecond})
	defer svc.Close()
	ts := httptest.NewServer(newMux(context.Background(), svc))
	defer ts.Close()

	// A clique workload with a large result set keeps the single worker
	// busy long enough for the concurrent requests to overlap.
	call(t, "POST", ts.URL+"/databases", map[string]any{
		"name": "d", "workload": map[string]any{
			"kind": "clique", "relations": 5, "tuples": 6, "domain": 2, "seed": 3}},
		http.StatusCreated, nil)

	const n = 6
	ids := make([]string, n)
	for i := range ids {
		var q createQueryResponse
		call(t, "POST", ts.URL+"/queries",
			map[string]any{"database": "d"},
			http.StatusCreated, &q)
		ids[i] = q.ID
	}

	got503 := false
	for round := 0; round < 20 && !got503; round++ {
		var (
			mu       sync.Mutex
			statuses []int
			retries  []string
		)
		var wg sync.WaitGroup
		for _, id := range ids {
			wg.Add(1)
			go func(id string) {
				defer wg.Done()
				resp, err := http.Get(ts.URL + "/queries/" + id + "/next?k=1024")
				if err != nil {
					return
				}
				defer resp.Body.Close()
				mu.Lock()
				statuses = append(statuses, resp.StatusCode)
				if resp.StatusCode == http.StatusServiceUnavailable {
					retries = append(retries, resp.Header.Get("Retry-After"))
				}
				mu.Unlock()
			}(id)
		}
		wg.Wait()
		okCount := 0
		for _, st := range statuses {
			switch st {
			case http.StatusOK:
				okCount++
			case http.StatusServiceUnavailable:
				got503 = true
			default:
				t.Fatalf("unexpected status %d under load (want 200 or 503)", st)
			}
		}
		if okCount == 0 {
			t.Fatal("no request succeeded under load")
		}
		for _, ra := range retries {
			if ra == "" {
				t.Fatal("503 response missing Retry-After")
			}
		}
	}
	if !got503 {
		t.Fatal("never observed a 503 across 20 concurrent rounds")
	}
	if svc.Stats().AdmissionTimeouts == 0 {
		t.Fatal("AdmissionTimeouts stayed zero despite shed requests")
	}

	// A shed session is still alive: with the load gone its Next works.
	resp := rawCall(t, "GET", ts.URL+"/queries/"+ids[0]+"/next?k=4", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("Next after load: status %d, want 200", resp.StatusCode)
	}
}
