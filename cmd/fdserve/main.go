// Command fdserve serves full disjunctions over HTTP: a JSON front end
// to internal/service, the concurrent query-session subsystem with
// pull-based cursors, fingerprint-keyed result caching and bounded
// admission.
//
// Endpoints:
//
//	POST   /databases              load a database (workload spec or rows)
//	GET    /databases              list registered databases (fingerprints)
//	DELETE /databases/{name}       drop a database (to re-register new content)
//	POST   /databases/{name}/rows  append rows (durable via the row log)
//	POST   /queries                open a query session (fd.Query JSON)
//	GET    /queries/{id}/next?k=   pull the next page of results
//	GET    /queries/{id}/follow    stream a follow session: base results,
//	                               then live deltas as appends land (NDJSON)
//	GET    /queries/{id}/trace     the session's execution trace (span tree)
//	DELETE /queries/{id}           close a session early
//	GET    /stats                  service counters (cache hits, engine stats)
//	GET    /metrics                Prometheus text exposition (docs/OBSERVABILITY.md)
//	GET    /healthz                liveness
//
// With -data <dir> the registry is durable: every registered database
// is persisted as a binary columnar snapshot (docs/SNAPSHOT_FORMAT.md),
// appended rows go to a per-database row log, and a restarted server
// recovers everything before accepting traffic.
//
// The body of POST /queries is {"database": <name>} plus the JSON
// encoding of an fd.Query (docs/QUERY_API.md): mode exact, ranked,
// approx or approx-ranked, the rank/sim names, k, tau, rank_tau and
// the engine options. Every front end shares that one spec — the
// library, this server, fdcli and fdbench parse, validate, cache and
// execute it identically.
//
// A walkthrough lives in the README ("Serving full disjunctions" and
// "Persistence"). Sessions idle past -idle are evicted; the server
// shuts down gracefully on SIGINT/SIGTERM.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	fd "repro"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers    = flag.Int("workers", 0, "concurrent page computations (0 = GOMAXPROCS)")
		engineWk   = flag.Int("engine-workers", 0, "total intra-query enumeration workers across live queries; queries request theirs via the spec's \"workers\" field (0 = GOMAXPROCS, 1 = all queries sequential)")
		cache      = flag.Int("cache", 64, "result-cache capacity in cached result lists (negative disables caching)")
		cacheBytes = flag.Int64("cache-bytes", 64<<20, "result-cache budget in approximate bytes (negative removes the bound)")
		idle       = flag.Duration("idle", 5*time.Minute, "query-session idle eviction timeout")
		pageMax    = flag.Int("page-max", 1024, "maximum results per page")
		dataDir    = flag.String("data", "", "data directory for durable registration (empty = in-memory only)")
		maxBody    = flag.Int64("max-body", defaultMaxBody, "maximum request body size in bytes (oversized uploads get 413)")
		admitWait  = flag.Duration("admission-wait", 2*time.Second, "how long a request may wait for a worker slot before being shed with 503 (0 = wait forever)")
		logFormat  = flag.String("log-format", "text", "log output format: text or json")
		logLevel   = flag.String("log-level", "info", "minimum log level: debug, info, warn or error (debug logs every request)")
		slowQuery  = flag.Duration("slow-query", 0, "log a warning with the trace summary for queries slower than this (0 disables)")
		delaySLO   = flag.Duration("delay-slo", 0, "per-result delay envelope: count every inter-result gap above this in fd_delay_slo_breaches_total and log the first breach per session (0 disables)")
		traceHist  = flag.Int("trace-history", 0, "finished query traces kept for GET /queries/{id}/trace (0 = default 64, negative disables)")
		pprofOn    = flag.Bool("pprof", false, "serve net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	if *idle <= 0 {
		// Mirror the service default here: the janitor ticker below
		// needs a positive interval.
		*idle = 5 * time.Minute
	}

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Free functions (writeJSON) and anything else without a handle log
	// through the default logger; route it to the same sink.
	slog.SetDefault(logger)

	var st *store.Store
	if *dataDir != "" {
		if st, err = store.Open(*dataDir); err != nil {
			logger.Error("open data directory", "dir", *dataDir, "error", err)
			os.Exit(1)
		}
	}

	svc := service.New(service.Config{
		Workers:          *workers,
		EngineWorkers:    *engineWk,
		CacheCapacity:    *cache,
		CacheMaxBytes:    *cacheBytes,
		IdleTimeout:      *idle,
		MaxPageSize:      *pageMax,
		AdmissionTimeout: *admitWait,
		Store:            st,
		Logger:           logger.With("component", "service"),
		SlowQuery:        *slowQuery,
		DelaySLO:         *delaySLO,
		TraceHistory:     *traceHist,
	})
	if st != nil {
		infos, err := svc.Recover()
		if err != nil {
			// Healthy databases recovered anyway; corrupt ones were
			// quarantined on disk and the server serves without them.
			logger.Warn("recover", "error", err)
		}
		for _, q := range svc.QuarantinedDatabases() {
			logger.Warn("quarantined database; re-register to serve it again",
				"database", q.Name, "quarantine", q.Label, "dir", st.Dir())
		}
		for _, info := range infos {
			logger.Info("recovered database", "database", info.Name,
				"relations", info.Relations, "tuples", info.Tuples,
				"fingerprint", info.Fingerprint)
		}
	}
	// Sessions carry this context: it outlives any single request and is
	// cancelled only after graceful shutdown has let in-flight pages
	// finish, so an abandoned enumeration can always be aborted from the
	// outside without cutting short a well-behaved drain.
	sessionCtx, cancelSessions := context.WithCancel(context.Background())
	defer cancelSessions()
	hs := newServer(sessionCtx, svc, *maxBody)
	hs.log = logger.With("component", "http")
	hs.pprof = *pprofOn
	srv := &http.Server{
		Addr:    *addr,
		Handler: hs.handler(),
		// A client that stalls mid-headers, trickles a body forever, or
		// never reads its response must not pin a connection goroutine
		// indefinitely. WriteTimeout is generous: it covers the page
		// computation of GET /queries/{id}/next.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      10 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Janitor: sweep idle sessions at a fraction of the timeout.
	go func() {
		tick := time.NewTicker(*idle / 4)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				if n := svc.EvictIdle(); n > 0 {
					logger.Info("evicted idle query sessions", "count", n)
				}
			}
		}
	}()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("fdserve listening", "addr", *addr, "pprof", *pprofOn)

	select {
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "error", err)
		}
		cancelSessions()
		svc.Close()
	case err := <-errc:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve", "error", err)
			os.Exit(1)
		}
	}
}

// buildLogger resolves the -log-format and -log-level flags into a
// slog.Logger writing to stderr.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("invalid -log-level %q: %w", level, err)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("invalid -log-format %q (want text or json)", format)
	}
}

// defaultMaxBody bounds request bodies: big enough for bulk uploads,
// small enough that one malicious POST cannot balloon the heap.
const defaultMaxBody = 32 << 20

// newMux wires the HTTP surface onto a service. Query sessions are
// opened under ctx (a server-lifetime context, not a per-request one —
// sessions outlive the request that created them). Split from main so
// tests drive the handlers through httptest.
func newMux(ctx context.Context, svc *service.Service) http.Handler {
	return newServer(ctx, svc, defaultMaxBody).handler()
}

func newServer(ctx context.Context, svc *service.Service, maxBody int64) *server {
	if maxBody <= 0 {
		maxBody = defaultMaxBody
	}
	// Logging defaults to off: the discard logger drops every record,
	// so tests composing handlers directly configure nothing. The panic
	// counter lives in the service's registry, resolved once here with
	// its help text.
	return &server{ctx: ctx, svc: svc, maxBody: maxBody,
		log: slog.New(slog.DiscardHandler),
		panicsRecovered: svc.Metrics().Counter("fd_panics_recovered_total",
			"Handler panics recovered by the HTTP middleware.")}
}

// routes builds the raw route table; handler wraps it with the
// request-id and panic-recovery middleware. Tests that need to inject
// a panicking route compose the pieces themselves.
func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /databases", s.handleCreateDatabase)
	mux.HandleFunc("GET /databases", s.handleListDatabases)
	mux.HandleFunc("DELETE /databases/{name}", s.handleDropDatabase)
	mux.HandleFunc("POST /databases/{name}/rows", s.handleAppendRows)
	mux.HandleFunc("POST /queries", s.handleCreateQuery)
	mux.HandleFunc("POST /explain", s.handleExplain)
	mux.HandleFunc("GET /queries/{id}/next", s.handleNext)
	mux.HandleFunc("GET /queries/{id}/follow", s.handleFollow)
	mux.HandleFunc("GET /queries/{id}/progress", s.handleProgress)
	mux.HandleFunc("GET /queries/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /queries/{id}", s.handleDeleteQuery)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", obs.Handler(s.svc.Metrics()).ServeHTTP)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *server) handler() http.Handler {
	return s.withRecovery(s.withRequestID(s.routes()))
}

// ctxKeyRequestID keys the per-request id in the request context.
type ctxKeyRequestID struct{}

// requestID returns the id withRequestID assigned, or "" outside the
// middleware (tests composing handlers directly).
func requestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKeyRequestID{}).(string)
	return id
}

// statusWriter records the response status for the access log.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Unwrap exposes the underlying writer to http.NewResponseController,
// so streaming handlers (GET /queries/{id}/follow) can flush and
// adjust deadlines through the middleware wrapper.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// withRequestID assigns each request a sequential id, echoes it as
// X-Request-Id, threads it through the context for downstream log
// records (panic reports), and emits a debug-level access log line.
func (s *server) withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := strconv.FormatUint(s.reqSeq.Add(1), 10)
		w.Header().Set("X-Request-Id", id)
		r = r.WithContext(context.WithValue(r.Context(), ctxKeyRequestID{}, id))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		next.ServeHTTP(sw, r)
		s.log.Debug("request",
			"id", id, "method", r.Method, "path", r.URL.Path,
			"status", sw.status, "duration", time.Since(start))
	})
}

// withRecovery turns a handler panic into a 500 plus a counted,
// logged incident, so one bad request cannot take the server down
// with it. http.ErrAbortHandler passes through — it is net/http's own
// control flow for aborting a response.
func (s *server) withRecovery(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler { //nolint:errorlint // sentinel comparison per net/http docs
					panic(rec)
				}
				s.panicsRecovered.Inc()
				s.log.Error("panic serving request",
					"id", requestID(r.Context()), "method", r.Method,
					"path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
				// Best effort: if the handler already wrote, this is a
				// trailing fragment the client ignores.
				writeError(w, http.StatusInternalServerError, fmt.Errorf("internal error"))
			}
		}()
		next.ServeHTTP(w, r)
	})
}

type server struct {
	// ctx is the base context of every query session this server opens.
	ctx context.Context
	svc *service.Service
	// maxBody caps request body bytes; oversized uploads get 413.
	maxBody int64
	// log receives the HTTP layer's records; never nil (newServer
	// defaults it to a discard logger).
	log *slog.Logger
	// pprof mounts net/http/pprof under /debug/pprof/ when set.
	pprof bool
	// reqSeq numbers requests for X-Request-Id and log correlation.
	reqSeq atomic.Uint64
	// panicsRecovered is fd_panics_recovered_total in the service's
	// registry: handler panics recovered by withRecovery, surfaced also
	// as panics_recovered in GET /stats.
	panicsRecovered *obs.Counter
}

// decodeBody decodes the request body as exactly one JSON value into v
// under the body size cap, writing the HTTP error (413 for an
// oversized body, 400 otherwise — including a field v does not declare
// and data after the value) itself; the caller just returns on false.
func (s *server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	var tooBig *http.MaxBytesError
	err := dec.Decode(v)
	if err == nil {
		// Only whitespace may follow the value.
		if _, err = dec.Token(); err == io.EOF {
			return true
		}
		if !errors.As(err, &tooBig) {
			err = errors.New("trailing data after the JSON value")
		}
	}
	if errors.As(err, &tooBig) {
		writeError(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
		return false
	}
	writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
	return false
}

// writeOverloaded maps service.ErrOverloaded to 503 + Retry-After: the
// request was shed unprocessed and the client should back off briefly.
func writeOverloaded(w http.ResponseWriter, err error) {
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, err)
}

// --- request/response shapes -------------------------------------------

// workloadSpec selects one of the internal/workload generators; the
// same (kind, parameters, seed) always produces the same database (and
// therefore the same fingerprint), so generated workloads share cached
// results across reloads and processes.
type workloadSpec struct {
	Kind          string  `json:"kind"` // chain, star, cycle, clique, random, dirty
	Relations     int     `json:"relations"`
	Tuples        int     `json:"tuples"`
	Domain        int     `json:"domain"`
	NullRate      float64 `json:"null_rate"`
	ImpMax        float64 `json:"imp_max"`
	Seed          int64   `json:"seed"`
	ExtraEdgeProb float64 `json:"extra_edge_prob"` // random kind
	ErrorRate     float64 `json:"error_rate"`      // dirty kind
}

// tupleSpec is one uploaded row; a null JSON value is ⊥. Imp defaults
// to 1 when omitted or zero; Prob defaults to 1 when omitted.
type tupleSpec struct {
	Label  string    `json:"label"`
	Values []*string `json:"values"`
	Imp    float64   `json:"imp"`
	Prob   *float64  `json:"prob"`
}

// tuple decodes an uploaded row whose values name attrs, in that order
// (each an attribute of schema): Imp 0 becomes 1, a missing Prob
// becomes 1, each value is placed at its attribute's schema position
// (the schema sorts attributes), and a null value stays ⊥.
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
	Name string `json:"name"`
	// Exactly one of Workload and Relations must be set.
	Workload  *workloadSpec  `json:"workload,omitempty"`
	Relations []relationSpec `json:"relations,omitempty"`
}

// createQueryRequest is the database name plus the fd.Query JSON
// encoding, embedded verbatim — the wire format IS the library spec,
// so anything expressible through fd.Open (including approx-ranked
// and the k / rank_tau bounds) is expressible over HTTP, and a field
// fd.Query does not decode is a 400 under strict decoding.
type createQueryRequest struct {
	Database string `json:"database"`
	fd.Query
}

type createQueryResponse struct {
	ID     string `json:"id"`
	Cached bool   `json:"cached"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// --- handlers ----------------------------------------------------------

func (s *server) handleCreateDatabase(w http.ResponseWriter, r *http.Request) {
	var req createDatabaseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	var (
		db  *relation.Database
		err error
	)
	switch {
	case req.Workload != nil && req.Relations != nil:
		writeError(w, http.StatusBadRequest, fmt.Errorf("set either workload or relations, not both"))
		return
	case req.Workload != nil:
		db, err = buildWorkload(*req.Workload)
	case req.Relations != nil:
		db, err = buildUploaded(req.Relations)
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing workload or relations"))
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	info, err := s.svc.AddDatabase(req.Name, db)
	if err != nil {
		writeError(w, http.StatusConflict, err)
		return
	}
	writeJSON(w, http.StatusCreated, info)
}

func buildWorkload(spec workloadSpec) (*relation.Database, error) {
	cfg := workload.Config{
		Relations:         spec.Relations,
		TuplesPerRelation: spec.Tuples,
		Domain:            spec.Domain,
		NullRate:          spec.NullRate,
		ImpMax:            spec.ImpMax,
		Seed:              spec.Seed,
	}
	return workload.Generate(spec.Kind, cfg, spec.ExtraEdgeProb, spec.ErrorRate)
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

// listDatabasesResponse is the GET /databases body: the registered
// databases plus any quarantined by recovery, so an operator sees
// casualties in the same place as survivors.
type listDatabasesResponse struct {
	Databases   []service.DatabaseInfo   `json:"databases"`
	Quarantined []service.QuarantineInfo `json:"quarantined,omitempty"`
}

func (s *server) handleListDatabases(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, listDatabasesResponse{
		Databases:   s.svc.ListDatabases(),
		Quarantined: s.svc.QuarantinedDatabases(),
	})
}

// appendRowsRequest appends tuples to one relation of a registered
// database. Attributes, when given, name the order of each tuple's
// values (any subset order of the relation's schema); when omitted the
// values must follow the schema's sorted attribute order.
type appendRowsRequest struct {
	Relation   string      `json:"relation"`
	Attributes []string    `json:"attributes,omitempty"`
	Tuples     []tupleSpec `json:"tuples"`
}

func (s *server) handleAppendRows(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req appendRowsRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	db, ok := s.svc.Database(name)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown database %q", name))
		return
	}
	relIdx, ok := db.RelationIndex(req.Relation)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("database %q has no relation %q", name, req.Relation))
		return
	}
	schema := db.Relation(relIdx).Schema()
	attrs := make([]relation.Attribute, 0, schema.Len())
	if req.Attributes == nil {
		attrs = append(attrs, schema.Attributes()...)
	} else {
		for _, a := range req.Attributes {
			attr := relation.Attribute(a)
			if !schema.Has(attr) {
				writeError(w, http.StatusBadRequest,
					fmt.Errorf("relation %q has no attribute %q", req.Relation, a))
				return
			}
			attrs = append(attrs, attr)
		}
	}
	tuples := make([]relation.Tuple, 0, len(req.Tuples))
	for i, ts := range req.Tuples {
		t, err := ts.tuple(schema, attrs)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("tuple %d: %w", i, err))
			return
		}
		tuples = append(tuples, t)
	}
	info, err := s.svc.AppendRows(name, req.Relation, tuples)
	if err != nil {
		// Classify on the returned error, not the pre-check above: the
		// database can be dropped between the schema lookup and the
		// append, and a durable-log failure after retry exhaustion is
		// the server's fault, not the client's.
		switch {
		case errors.Is(err, service.ErrUnknownDatabase),
			errors.Is(err, service.ErrUnknownRelation):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, service.ErrStorage):
			writeError(w, http.StatusInternalServerError, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *server) handleDropDatabase(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.DropDatabase(r.PathValue("name")); err != nil {
		// An unknown name is the caller's mistake; anything else is an
		// operational failure (e.g. the persisted files could not be
		// deleted — the registration is then still intact).
		if errors.Is(err, service.ErrUnknownDatabase) {
			writeError(w, http.StatusNotFound, err)
		} else {
			writeError(w, http.StatusInternalServerError, err)
		}
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *server) handleCreateQuery(w http.ResponseWriter, r *http.Request) {
	var req createQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	q, err := s.svc.StartQuery(s.ctx, req.Database, req.Query)
	if err != nil {
		switch {
		case errors.Is(err, service.ErrUnknownDatabase):
			writeError(w, http.StatusNotFound, err)
		case errors.Is(err, service.ErrOverloaded):
			writeOverloaded(w, err)
		default:
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusCreated, createQueryResponse{ID: q.ID(), Cached: q.FromCache()})
}

// handleExplain reports the engine's plan for a query spec — join
// graph, index engagement, execution strategy with the parallel task
// layout, cache key and hit prediction — without opening a session. It
// takes the same body as POST /queries, so the plan describes exactly
// the session that body would start.
func (s *server) handleExplain(w http.ResponseWriter, r *http.Request) {
	var req createQueryRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	rep, err := s.svc.Explain(req.Database, req.Query)
	if err != nil {
		if errors.Is(err, service.ErrUnknownDatabase) {
			writeError(w, http.StatusNotFound, err)
		} else {
			writeError(w, http.StatusBadRequest, err)
		}
		return
	}
	writeJSON(w, http.StatusOK, rep)
}

// handleProgress serves the session's live counters: phase, task
// completion, tuples scanned, results emitted, and the delay summary.
// It reads atomics only — a progress poll never waits on the page
// currently computing.
func (s *server) handleProgress(w http.ResponseWriter, r *http.Request) {
	q, ok := s.svc.Query(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, q.Progress())
}

// pageBufs recycles page bodies across requests: a page is rendered
// into one buffer and written with a single Write.
var pageBufs = sync.Pool{New: func() any { return new([]byte) }}

func (s *server) handleNext(w http.ResponseWriter, r *http.Request) {
	q, ok := s.svc.Query(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	k := 10
	if raw := r.URL.Query().Get("k"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid page size %q", raw))
			return
		}
		k = v
	}
	page, done, err := q.Next(k)
	if err != nil {
		if errors.Is(err, service.ErrOverloaded) {
			// Shed, not dead: the session is untouched and the identical
			// Next may be retried.
			writeOverloaded(w, err)
			return
		}
		writeError(w, http.StatusGone, err)
		return
	}
	buf := pageBufs.Get().(*[]byte)
	defer pageBufs.Put(buf)
	body, err := service.AppendPage((*buf)[:0], q.Universe(), page, done, q.Served())
	*buf = body[:0]
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		slog.Warn("write page", "error", err)
	}
}

// handleTrace serves the span tree of a live or recently finished
// query session — the EXPLAIN-ANALYZE view. Finished traces are kept
// in a bounded history (service.Config.TraceHistory), so a trace may
// age out with a 404 even if the id was once valid.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	d, ok := s.svc.QueryTrace(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no trace for query %q", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, d)
}

func (s *server) handleDeleteQuery(w http.ResponseWriter, r *http.Request) {
	q, ok := s.svc.Query(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("unknown query %q", r.PathValue("id")))
		return
	}
	q.Close()
	w.WriteHeader(http.StatusNoContent)
}

// statsResponse adds the HTTP layer's own counters to the service
// snapshot.
type statsResponse struct {
	service.Stats
	PanicsRecovered int64 `json:"panics_recovered"`
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Stats:           s.svc.Stats(),
		PanicsRecovered: s.panicsRecovered.Value(),
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("encode response", "error", err)
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
