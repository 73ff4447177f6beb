package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/service"
)

// startObsServer spins up the full middleware stack (request ids,
// recovery) over a service, the way main() composes it, and returns
// the service's metrics registry.
func startObsServer(t *testing.T) (*httptest.Server, *obs.Registry) {
	t.Helper()
	svc := service.New(service.Config{})
	hs := newServer(context.Background(), svc, defaultMaxBody)
	ts := httptest.NewServer(hs.handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, svc.Metrics()
}

// TestMetricsEndpoint drives a query over the wire and asserts GET
// /metrics serves the Prometheus exposition with the moved counters
// and the right content type.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := startObsServer(t)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)
	var created createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &created)
	var page pageResponse
	for done := false; !done; done = page.Done {
		call(t, "GET", ts.URL+"/queries/"+created.ID+"/next?k=7", nil, http.StatusOK, &page)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("GET /metrics content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		`fd_queries_total{db="w",mode="exact"} 1`,
		`fd_cache_misses_total 1`,
		"fd_admission_wait_seconds_bucket",
		"# TYPE fd_queries_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestTraceEndpoint pages a query and fetches its span tree, live and
// after the session is closed (from the finished-trace history).
func TestTraceEndpoint(t *testing.T) {
	ts, _ := startObsServer(t)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)
	var created createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &created)
	var page pageResponse
	call(t, "GET", ts.URL+"/queries/"+created.ID+"/next?k=5", nil, http.StatusOK, &page)

	var live obs.TraceData
	call(t, "GET", ts.URL+"/queries/"+created.ID+"/trace", nil, http.StatusOK, &live)
	if live.ID != created.ID || live.Root == nil || live.Root.Name != "query" {
		t.Fatalf("unexpected live trace: %+v", live)
	}
	names := map[string]bool{}
	for _, sp := range live.Root.Children {
		names[sp.Name] = true
	}
	for _, want := range []string{"validate", "cache", "admission", "open", "next"} {
		if !names[want] {
			t.Errorf("live trace missing %q span (got %v)", want, names)
		}
	}

	call(t, "DELETE", ts.URL+"/queries/"+created.ID, nil, http.StatusNoContent, nil)
	var done obs.TraceData
	call(t, "GET", ts.URL+"/queries/"+created.ID+"/trace", nil, http.StatusOK, &done)
	if len(done.FindAll("close")) != 1 {
		t.Errorf("finished trace missing close span")
	}
	call(t, "GET", ts.URL+"/queries/no-such-id/trace", nil, http.StatusNotFound, nil)
}

// TestRequestIDHeader: the middleware assigns monotonically increasing
// X-Request-Id values.
func TestRequestIDHeader(t *testing.T) {
	ts, _ := startObsServer(t)
	var prev string
	for i := 0; i < 2; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		id := resp.Header.Get("X-Request-Id")
		if id == "" || id == prev {
			t.Fatalf("request %d: X-Request-Id %q (prev %q)", i, id, prev)
		}
		prev = id
	}
}

// TestPanicCounterInRegistry: a recovered handler panic increments
// fd_panics_recovered_total, which /stats reports as panics_recovered.
func TestPanicCounterInRegistry(t *testing.T) {
	svc := service.New(service.Config{})
	defer svc.Close()
	reg := svc.Metrics()
	hs := newServer(context.Background(), svc, defaultMaxBody)
	mux := hs.routes()
	mux.HandleFunc("GET /boom", func(http.ResponseWriter, *http.Request) {
		panic("kaboom")
	})
	ts := httptest.NewServer(hs.withRecovery(hs.withRequestID(mux)))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/boom")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /boom: status %d", resp.StatusCode)
	}
	if got := reg.Counter("fd_panics_recovered_total", "").Value(); got != 1 {
		t.Errorf("fd_panics_recovered_total = %d, want 1", got)
	}
	var stats statsResponse
	call(t, "GET", ts.URL+"/stats", nil, http.StatusOK, &stats)
	if stats.PanicsRecovered != 1 {
		t.Errorf("panics_recovered = %d, want 1", stats.PanicsRecovered)
	}
}

// TestTraceJSONRoundTrips guards the wire schema: the trace document
// re-marshals without loss of the span fields clients key on.
func TestTraceJSONRoundTrips(t *testing.T) {
	ts, _ := startObsServer(t)
	call(t, "POST", ts.URL+"/databases",
		map[string]any{"name": "w", "workload": chainSpec}, http.StatusCreated, nil)
	var created createQueryResponse
	call(t, "POST", ts.URL+"/queries",
		map[string]any{"database": "w", "mode": "exact"}, http.StatusCreated, &created)
	var page pageResponse
	call(t, "GET", ts.URL+"/queries/"+created.ID+"/next?k=3", nil, http.StatusOK, &page)

	resp, err := http.Get(ts.URL + "/queries/" + created.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	root, _ := doc["root"].(map[string]any)
	if root == nil {
		t.Fatalf("trace document missing root: %v", doc)
	}
	for _, key := range []string{"name", "start_unix_nano", "children"} {
		if _, ok := root[key]; !ok {
			t.Errorf("root span missing %q: %v", key, root)
		}
	}
}
