// Package service turns the enumerator cursors into a multi-tenant
// query service: a registry of named, frozen databases; per-client
// query sessions paged through pull-based cursors with idle-timeout
// eviction; a result cache keyed by database fingerprint and canonical
// query spec; and admission control through a bounded worker pool
// shared across sessions. cmd/fdserve exposes it over HTTP.
//
// The paper's headline property — results arrive one at a time with
// polynomial delay (PINC) — is exactly the shape of a paginated "next k
// results" service: a page of k answers costs time polynomial in the
// database and k, independent of how many answers remain.
package service

import (
	"context"
	"errors"
	"fmt"
	iofs "io/fs"
	"log/slog"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/tupleset"
)

// Result is one full-disjunction answer produced by a query session:
// the unified result shape of the fd.Results cursor (the tuple set
// plus its rank in ranked modes).
type Result = fd.Result

// Config tunes a Service. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds the number of concurrently computing pages (and
	// cursor constructions) across all sessions; ≤0 selects GOMAXPROCS.
	Workers int
	// EngineWorkers bounds intra-query parallelism: the total
	// enumeration workers the streaming executor may run across all
	// live queries. Every admitted query carries one implicit worker;
	// queries whose spec asks for more (QueryOptions.Workers) are
	// granted extra workers best-effort from the shared remainder of
	// EngineWorkers−1, so parallel queries never multiply admission —
	// a parallel query still consumes exactly one admission slot.
	// ≤0 selects GOMAXPROCS; 1 forces every query sequential.
	EngineWorkers int
	// CacheCapacity bounds the result cache in entries (cached result
	// lists); 0 selects 64, negative disables result caching.
	CacheCapacity int
	// CacheMaxResults bounds the length of one cacheable result list;
	// sessions that drain more results than this are not cached (the
	// accumulation buffer is dropped at the cap, keeping a huge paged
	// enumeration from pinning its whole output in server memory).
	// 0 selects 65536, negative removes the bound.
	CacheMaxResults int
	// CacheMaxBytes bounds the result cache by the approximate heap
	// bytes of the cached result lists, so a few huge lists cannot pin
	// unbounded memory within the entry-count bound. 0 selects 64 MiB,
	// negative removes the byte bound.
	CacheMaxBytes int64
	// Store, when non-nil, makes the database registry durable:
	// AddDatabase persists a snapshot, DropDatabase deletes it, and
	// Recover reloads every stored database (replaying and compacting
	// row logs) after a restart.
	Store *store.Store
	// IdleTimeout is the idle eviction horizon for query sessions; ≤0
	// selects 5 minutes.
	IdleTimeout time.Duration
	// MaxPageSize caps the k of one Next call; ≤0 selects 1024.
	MaxPageSize int
	// AdmissionTimeout bounds how long StartQuery and Next wait for a
	// worker slot before shedding the request with ErrOverloaded (the
	// front end turns it into 503 + Retry-After). 0 waits forever —
	// the pre-timeout behaviour; negative sheds immediately.
	AdmissionTimeout time.Duration
	// RetryAttempts is the total number of tries a transient store
	// failure gets during persistence (AddDatabase, AppendRows, the
	// recovery compaction); 0 selects 3, negative disables retrying.
	// Permanent failures — fingerprint mismatch, missing files — are
	// never retried.
	RetryAttempts int
	// RetryBackoff is the delay before the first retry, doubling per
	// attempt and capped at 8× the base; 0 selects 10ms.
	RetryBackoff time.Duration
	// Now supplies the clock, for tests; nil selects time.Now.
	Now func() time.Time
	// Sleep suspends between retries, for tests; nil selects time.Sleep.
	Sleep func(time.Duration)
	// Logger receives the service's structured log output (recovery,
	// quarantine, slow queries); nil discards it.
	Logger *slog.Logger
	// SlowQuery, when positive, logs a warning with the trace summary
	// for every completed query whose wall time exceeded it.
	SlowQuery time.Duration
	// DelaySLO, when positive, is the per-result delay envelope: the
	// gap between consecutive results a healthy enumeration must stay
	// under (the operational form of the paper's polynomial-delay
	// guarantee). Every breach increments fd_delay_slo_breaches_total;
	// the first breach of a session also logs a warning carrying the
	// trace summary. Zero disables the watchdog.
	DelaySLO time.Duration
	// TraceHistory bounds how many finished query traces stay
	// retrievable via QueryTrace after their session closed; 0 selects
	// 64, negative retains none.
	TraceHistory int
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.EngineWorkers <= 0 {
		c.EngineWorkers = runtime.GOMAXPROCS(0)
	}
	if c.CacheCapacity == 0 {
		c.CacheCapacity = 64
	}
	if c.CacheMaxResults == 0 {
		c.CacheMaxResults = 65536
	}
	if c.CacheMaxBytes == 0 {
		c.CacheMaxBytes = 64 << 20
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.MaxPageSize <= 0 {
		c.MaxPageSize = 1024
	}
	if c.RetryAttempts == 0 {
		c.RetryAttempts = 3
	}
	if c.RetryAttempts < 0 {
		c.RetryAttempts = 1
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 10 * time.Millisecond
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	if c.Sleep == nil {
		c.Sleep = time.Sleep
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.TraceHistory == 0 {
		c.TraceHistory = 64
	}
	return c
}

// Stats is a snapshot of the service's counters, surfaced by fdserve's
// GET /stats. Every count is read from the service's metrics registry
// (Service.Metrics), so a /stats figure and its /metrics series are
// the same number; docs/OBSERVABILITY.md maps each field to its series.
type Stats struct {
	Databases      int   `json:"databases"`
	ActiveQueries  int   `json:"active_queries"`
	QueriesStarted int64 `json:"queries_started"`
	QueriesDone    int64 `json:"queries_finished"`
	QueriesEvicted int64 `json:"queries_evicted"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEntries   int   `json:"cache_entries"`
	CacheBytes     int64 `json:"cache_bytes"`
	// CacheEvictions counts result lists evicted by the cache's entry
	// or byte bound.
	CacheEvictions int64 `json:"cache_evictions"`
	ResultsServed  int64 `json:"results_served"`
	// StoreRetries counts transient store failures that were retried
	// during persistence (whether or not the retry then succeeded).
	StoreRetries int64 `json:"store_retries"`
	// AdmissionTimeouts counts requests shed with ErrOverloaded because
	// no worker slot freed up within AdmissionTimeout.
	AdmissionTimeouts int64 `json:"admission_timeouts"`
	// QuarantinedDatabases lists databases whose files Recover moved
	// aside as corrupt (plus quarantines found on disk from earlier
	// runs); the service keeps serving everything else.
	QuarantinedDatabases []QuarantineInfo `json:"quarantined_databases,omitempty"`
	// Engine aggregates the core.Stats of every finished or closed
	// query session (in-flight sessions contribute at close).
	Engine core.Stats `json:"engine"`
}

// QuarantineInfo describes one quarantined database: the name it was
// registered under, the label its files now carry on disk, and the
// load error that condemned it (empty for quarantines inherited from
// an earlier run).
type QuarantineInfo struct {
	Name  string `json:"name"`
	Label string `json:"label"`
	Error string `json:"error,omitempty"`
}

// ErrUnknownDatabase marks lookups of names that are not registered;
// front ends use it to tell "no such database" (404) apart from an
// operational failure.
var ErrUnknownDatabase = errors.New("unknown database")

// ErrOverloaded marks requests shed because every worker slot stayed
// busy for the whole AdmissionTimeout; front ends turn it into 503 +
// Retry-After. The request had no effect and may be retried.
var ErrOverloaded = errors.New("service overloaded")

// dbEntry is one registered database with a shared rendering universe
// (safe across goroutines: the database is frozen and emitted sets
// carry valid signatures, so padding only reads).
type dbEntry struct {
	name string
	db   *relation.Database
	u    *tupleset.Universe
	// snapFP is the fingerprint of the on-disk snapshot backing this
	// registration (zero without a Store). AppendRows carries it across
	// registry swaps — the snapshot does not change on append, only the
	// row log grows — and Store.Append verifies it, so an append racing
	// a drop + re-register can never durably log rows against the
	// replacement snapshot.
	snapFP uint64
}

// Service is the concurrent query-session subsystem. It owns the
// metrics registry that records its counters (Metrics). All methods
// are safe for concurrent use.
type Service struct {
	cfg Config
	// sem is the admission semaphore: one slot per concurrently
	// computing page or cursor construction, shared across sessions.
	sem chan struct{}
	// engineSem is the shared intra-query worker budget: capacity
	// EngineWorkers−1 (each admitted query brings its own first
	// worker). StartQuery takes extra slots non-blockingly — parallelism
	// degrades, admission never deadlocks — and the session returns
	// them when its cursor is closed or drained.
	engineSem chan struct{}

	// appendMu serialises AppendRows end to end (rebuild, log write,
	// registry swap), so concurrent appends to one database cannot
	// leave the in-memory registry and the durable row log disagreeing.
	appendMu sync.Mutex

	mu      sync.Mutex
	dbs     map[string]*dbEntry
	queries map[string]*Query
	cache   *resultCache
	// subs holds the live follow subscriptions, by database name then
	// session id; AppendRows pushes each append's delta batch to every
	// family-matched subscription of the appended database.
	subs        map[string]map[string]*subscription
	seq         uint64
	closed      bool
	quarantined []QuarantineInfo
	engine      core.Stats

	// met is the one record of every count: GET /metrics renders it
	// and Stats reads it.
	met metrics
	// finishedTraces retains the execution traces of closed sessions
	// (bounded FIFO of TraceHistory entries), so GET /queries/{id}/trace
	// keeps answering after the session is gone.
	finishedTraces map[string]*obs.TraceData
	finishedOrder  []string
}

// New builds a Service.
func New(cfg Config) *Service {
	cfg = cfg.withDefaults()
	s := &Service{
		cfg:            cfg,
		sem:            make(chan struct{}, cfg.Workers),
		engineSem:      make(chan struct{}, cfg.EngineWorkers-1),
		dbs:            make(map[string]*dbEntry),
		queries:        make(map[string]*Query),
		subs:           make(map[string]map[string]*subscription),
		cache:          newResultCache(cfg.CacheCapacity, cfg.CacheMaxBytes),
		met:            newMetrics(),
		finishedTraces: make(map[string]*obs.TraceData),
	}
	if cfg.Store != nil {
		cfg.Store.Instrument(s.met.storeOp)
	}
	return s
}

// Metrics returns the service's metrics registry, for exposition at
// GET /metrics. Front ends may register their own series in it.
func (s *Service) Metrics() *obs.Registry { return s.met.reg }

// acquire takes one admission slot, waiting at most AdmissionTimeout
// (forever when the timeout is zero). On timeout the request is shed
// with ErrOverloaded instead of queueing without bound. The wait is
// observed into the admission-wait histogram either way.
func (s *Service) acquire() error {
	start := time.Now()
	defer func() { s.met.admissionWait.Observe(time.Since(start).Seconds()) }()
	if s.cfg.AdmissionTimeout == 0 {
		s.sem <- struct{}{}
		return nil
	}
	select {
	case s.sem <- struct{}{}:
		return nil
	default:
	}
	if s.cfg.AdmissionTimeout < 0 {
		return s.shed()
	}
	t := time.NewTimer(s.cfg.AdmissionTimeout)
	defer t.Stop()
	select {
	case s.sem <- struct{}{}:
		return nil
	case <-t.C:
		return s.shed()
	}
}

func (s *Service) shed() error {
	s.met.admissionTimeouts.Inc()
	return fmt.Errorf("service: %w: all %d workers busy for %v",
		ErrOverloaded, s.cfg.Workers, s.cfg.AdmissionTimeout)
}

func (s *Service) release() { <-s.sem }

// retryStore runs one persistence operation with capped exponential
// backoff: transient failures (a flaky disk, a full-but-recovering
// volume) get up to RetryAttempts tries, while permanent failures —
// a snapshot fingerprint mismatch, files that no longer exist — fail
// immediately, since retrying cannot change them.
func (s *Service) retryStore(op func() error) error {
	backoff := s.cfg.RetryBackoff
	for attempt := 1; ; attempt++ {
		err := op()
		if err == nil || attempt >= s.cfg.RetryAttempts || !retryable(err) {
			return err
		}
		s.met.storeRetries.Inc()
		s.cfg.Logger.Warn("retrying store operation",
			"attempt", attempt, "backoff", backoff, "error", err)
		s.cfg.Sleep(backoff)
		if backoff < s.cfg.RetryBackoff<<3 {
			backoff *= 2
		}
	}
}

func retryable(err error) bool {
	return !errors.Is(err, store.ErrFingerprintMismatch) && !errors.Is(err, iofs.ErrNotExist)
}

// DatabaseInfo describes a registered database.
type DatabaseInfo struct {
	Name        string `json:"name"`
	Relations   int    `json:"relations"`
	Tuples      int    `json:"tuples"`
	Fingerprint string `json:"fingerprint"`
}

// AddDatabase registers db under name, freezing it (queries and cached
// results assume immutable content; to change a registered database,
// append through AppendRows, or DropDatabase it, build or Extend a new
// database and register that). Names are unique. With a configured
// Store the registration is durable: a snapshot is persisted before
// AddDatabase returns, and a persistence failure unregisters the
// database again.
func (s *Service) AddDatabase(name string, db *relation.Database) (DatabaseInfo, error) {
	return s.addDatabase(name, db, true)
}

func (s *Service) addDatabase(name string, db *relation.Database, persist bool) (DatabaseInfo, error) {
	if name == "" {
		return DatabaseInfo{}, fmt.Errorf("service: empty database name")
	}
	if db == nil {
		return DatabaseInfo{}, fmt.Errorf("service: nil database")
	}
	// Validate before fingerprinting: computing the fingerprint freezes
	// db, which must not happen on a rejected registration.
	check := func() error {
		if s.closed {
			return fmt.Errorf("service: closed")
		}
		if _, ok := s.dbs[name]; ok {
			return fmt.Errorf("service: database %q already registered", name)
		}
		return nil
	}
	s.mu.Lock()
	if err := check(); err != nil {
		s.mu.Unlock()
		return DatabaseInfo{}, err
	}
	s.mu.Unlock()
	fp := db.Fingerprint() // freezes; outside the lock
	s.mu.Lock()
	if err := check(); err != nil { // re-check: the lock was dropped
		s.mu.Unlock()
		return DatabaseInfo{}, err
	}
	s.dbs[name] = &dbEntry{name: name, db: db, u: tupleset.NewUniverse(db), snapFP: fp}
	s.mu.Unlock()

	if persist && s.cfg.Store != nil {
		// Snapshot IO happens outside the registry lock; a failure rolls
		// the registration back so memory and disk agree.
		if err := s.retryStore(func() error { return s.cfg.Store.Save(name, db) }); err != nil {
			s.mu.Lock()
			delete(s.dbs, name)
			s.mu.Unlock()
			return DatabaseInfo{}, fmt.Errorf("service: persisting database %q: %w", name, err)
		}
	}
	return DatabaseInfo{
		Name:        name,
		Relations:   db.NumRelations(),
		Tuples:      db.NumTuples(),
		Fingerprint: fmt.Sprintf("%016x", fp),
	}, nil
}

// DropDatabase removes the registered database of that name, deleting
// its persisted snapshot and row log when a Store is configured. The
// files go first: if their deletion fails the registration stays, so
// the in-memory registry never disagrees with what the next restart
// would recover. Open sessions against the database keep running (they
// hold the entry), and cached result lists stay — they are keyed by
// content fingerprint, so they remain correct for any re-registration
// with the same content.
func (s *Service) DropDatabase(name string) error {
	s.mu.Lock()
	if _, ok := s.dbs[name]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("service: %w %q", ErrUnknownDatabase, name)
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		if err := s.cfg.Store.Delete(name); err != nil {
			return err
		}
	}
	s.mu.Lock()
	delete(s.dbs, name)
	// Follow subscriptions watch a name; the name is gone, so end the
	// streams (the base sessions keep paging — they hold the entry).
	s.closeSubsLocked(name)
	s.mu.Unlock()
	return nil
}

// Recover loads every database in the configured Store and registers
// it, so a restarted server resumes serving exactly what it served
// before. Row logs are replayed and immediately compacted back into
// their snapshots. A database that fails to load (corrupt snapshot,
// torn log) is quarantined — its files are renamed aside on disk, so
// the next recovery does not trip over it again — and reported both in
// the joined error and in Stats.QuarantinedDatabases; the rest recover
// and the service serves them. Recover returns nil infos and nil error
// when no Store is configured.
func (s *Service) Recover() ([]DatabaseInfo, error) {
	if s.cfg.Store == nil {
		return nil, nil
	}
	// Start from what is already quarantined on disk, so repeated
	// recoveries (and restarts) keep reporting earlier casualties
	// without re-quarantining anything.
	var quarantined []QuarantineInfo
	if prior, err := s.cfg.Store.ListQuarantined(); err == nil {
		for _, q := range prior {
			quarantined = append(quarantined, QuarantineInfo{Name: q.Name, Label: q.Label})
		}
	}
	names, err := s.cfg.Store.List()
	if err != nil {
		return nil, fmt.Errorf("service: recover: %w", err)
	}
	var infos []DatabaseInfo
	var errs []error
	for _, name := range names {
		db, replayed, err := s.cfg.Store.Load(name)
		if err != nil {
			info := QuarantineInfo{Name: name, Error: err.Error()}
			label, qerr := s.cfg.Store.Quarantine(name)
			if qerr != nil {
				errs = append(errs, errors.Join(err, qerr))
			} else {
				info.Label = label
				errs = append(errs, fmt.Errorf("service: recover: quarantined %q as %s: %w", name, label, err))
			}
			s.met.quarantines.Inc()
			s.cfg.Logger.Warn("quarantined database during recovery",
				"db", name, "label", info.Label, "error", err)
			quarantined = append(quarantined, info)
			continue
		}
		if replayed {
			// Fold the row log back into the snapshot now, so the next
			// restart loads one flat file with no replay.
			if err := s.retryStore(func() error { return s.cfg.Store.Save(name, db) }); err != nil {
				errs = append(errs, fmt.Errorf("service: compacting %q: %w", name, err))
				s.cfg.Logger.Error("compacting replayed row log failed", "db", name, "error", err)
				continue
			}
			s.cfg.Logger.Info("compacted row log into snapshot", "db", name)
		}
		info, err := s.addDatabase(name, db, false)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		infos = append(infos, info)
	}
	s.mu.Lock()
	s.quarantined = quarantined
	s.mu.Unlock()
	return infos, errors.Join(errs...)
}

// QuarantinedDatabases lists the databases quarantined by Recover (and
// quarantines inherited from earlier runs), sorted by label.
func (s *Service) QuarantinedDatabases() []QuarantineInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]QuarantineInfo, len(s.quarantined))
	copy(out, s.quarantined)
	sort.Slice(out, func(i, j int) bool { return out[i].Label < out[j].Label })
	return out
}

// ListDatabases describes every registered database, sorted by name.
func (s *Service) ListDatabases() []DatabaseInfo {
	s.mu.Lock()
	entries := make([]*dbEntry, 0, len(s.dbs))
	for _, e := range s.dbs {
		entries = append(entries, e)
	}
	s.mu.Unlock()
	infos := make([]DatabaseInfo, len(entries))
	for i, e := range entries {
		// Fingerprint is cached on the frozen database; no recompute.
		infos[i] = DatabaseInfo{
			Name:        e.name,
			Relations:   e.db.NumRelations(),
			Tuples:      e.db.NumTuples(),
			Fingerprint: fmt.Sprintf("%016x", e.db.Fingerprint()),
		}
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// Database returns the registered database of that name.
func (s *Service) Database(name string) (*relation.Database, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.dbs[name]
	if !ok {
		return nil, false
	}
	return e.db, true
}

// ExplainReport is POST /explain's payload: the engine's plan plus the
// service's cache-hit prediction for it.
type ExplainReport struct {
	*fd.Plan
	// CacheHitPredicted reports whether a session started now would
	// serve from the result cache: a previous session drained the same
	// canonical query over an identically-fingerprinted database and
	// its result list is still resident.
	CacheHitPredicted bool `json:"cache_hit_predicted"`
}

// Explain reports the plan of spec against the registered database
// dbName without opening a session: fd.Explain's engine plan plus a
// cache-hit prediction against the live result cache. The probe does
// not promote the cache entry — predicting a hit must not manufacture
// one's LRU standing.
func (s *Service) Explain(dbName string, spec fd.Query) (*ExplainReport, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: closed")
	}
	entry, ok := s.dbs[dbName]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("service: %w %q", ErrUnknownDatabase, dbName)
	}
	plan, err := fd.Explain(entry.db, spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	hit := s.cache.peek(plan.CacheKey)
	s.mu.Unlock()
	return &ExplainReport{Plan: plan, CacheHitPredicted: hit}, nil
}

// StartQuery opens a query session for the declarative spec q against
// the registered database dbName. When an identical query (by
// fd.Query.Canonical) on an identically-fingerprinted database has
// been drained before, the session serves pages from the result cache
// without touching the enumerators; otherwise it opens the fd.Results
// cursor (inside a worker slot — construction can carry the ranked
// modes' preprocessing).
//
// The session carries ctx: cancelling it aborts an in-flight page
// computation within one enumeration step and poisons the session with
// ctx.Err(). Pass a context that outlives the session (a server
// lifetime context, not a per-request one) — sessions are closed
// explicitly via Close, idle eviction, or Service.Close, each of which
// also cancels the session's derived context. A nil ctx means
// context.Background().
func (s *Service) StartQuery(ctx context.Context, dbName string, spec fd.Query) (*Query, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	vStart := s.cfg.Now()
	if err := spec.Validate(); err != nil {
		s.met.queriesRejected.Inc()
		return nil, err
	}
	vEnd := s.cfg.Now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: closed")
	}
	entry, ok := s.dbs[dbName]
	if !ok {
		s.mu.Unlock()
		return nil, fmt.Errorf("service: %w %q", ErrUnknownDatabase, dbName)
	}
	// A registered database is frozen and never changes content (an
	// append registers a new entry), so its fingerprint is a cache read.
	key := fmt.Sprintf("%016x|%s", entry.db.Fingerprint(), spec.Canonical())
	s.seq++
	id := fmt.Sprintf("q%d", s.seq)
	qctx, cancel := context.WithCancel(ctx)
	q := &Query{id: id, svc: s, spec: spec, dbName: dbName, key: key, db: entry,
		cancel: cancel, uncacheable: s.cfg.CacheCapacity < 0,
		trace: obs.NewTrace(id, s.cfg.Now), started: s.cfg.Now(),
		progress: &obs.Progress{}, delay: obs.NewDelay(0)}
	q.delayHist = s.met.resultDelay(dbName, q.mode())
	q.results = s.met.results(dbName)
	q.delay.SetSink(q.observeDelay)
	q.trace.Root().Record("validate", vStart, vEnd.Sub(vStart), nil)
	q.touch(s.cfg.Now())

	cStart := s.cfg.Now()
	cached, hit := s.cache.get(key)
	q.trace.Root().Record("cache", cStart, s.cfg.Now().Sub(cStart), nil,
		"hit", strconv.FormatBool(hit))
	if hit {
		q.cached, q.fromCache = cached, true
		q.progress.SetPhase(obs.PhaseCached)
		s.publishLocked(q)
		s.mu.Unlock()
		return q, nil
	}
	s.mu.Unlock()

	// Intra-query parallelism: grant extra enumeration workers from the
	// shared engine budget, non-blockingly — a busy service degrades a
	// parallel query toward sequential instead of queueing it. The
	// granted count overrides the spec handed to the executor only; the
	// cache key above keeps the client's requested spec.
	run := spec
	grantedWorkers := 1
	if want := spec.ParallelWorkers(); want > 1 {
		granted := 1
		for granted < want {
			select {
			case s.engineSem <- struct{}{}:
				granted++
				continue
			default:
			}
			break
		}
		run.Options.Workers = granted
		q.engineSlots = granted - 1
		grantedWorkers = granted
	}
	// Parallel tasks report completion spans from worker goroutines;
	// attach them under the page span being computed (or the root, for
	// tasks outliving their page) without taking the session lock —
	// Close holds it while waiting for those very workers.
	run.Options.TaskObserver = func(ts fd.TaskSpan) {
		sp := q.pageSpan.Load()
		if sp == nil {
			sp = q.trace.Root()
		}
		sp.Record("task", ts.Start, ts.End.Sub(ts.Start), ts.Stats.Map(),
			"label", ts.Label)
	}
	// Live introspection: fd.Open keeps the progress counters current
	// and routes every inter-result gap through the delay tracker (whose
	// sink feeds the metrics histogram and the SLO watchdog).
	run.Options.Progress, run.Options.Delay = q.progress, q.delay

	adStart := s.cfg.Now()
	if err := s.acquire(); err != nil {
		q.releaseEngine()
		cancel()
		return nil, err
	}
	q.trace.Root().Record("admission", adStart, s.cfg.Now().Sub(adStart), nil)
	oStart := s.cfg.Now()
	cur, err := fd.Open(qctx, entry.db, run)
	s.release()
	if err != nil {
		q.releaseEngine()
		cancel()
		return nil, err
	}
	// The open span carries the cursor's construction-time counters
	// (ranked modes pay their preprocessing inside Open); page spans
	// then carry telescoping deltas, so the trace's span stats sum to
	// the cursor's final Stats().
	q.lastStats = cur.Stats()
	q.trace.Root().Record("open", oStart, s.cfg.Now().Sub(oStart), q.lastStats.Map(),
		"workers", strconv.Itoa(grantedWorkers))

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		cur.Close()
		cancel()
		return nil, fmt.Errorf("service: closed")
	}
	q.cur = cur
	s.publishLocked(q)
	return q, nil
}

// publishLocked makes a started session visible to Query, the idle
// sweep and (for Follow specs) append fan-out, and counts it as a cache
// hit or miss and under fd_queries_total. Callers hold s.mu.
func (s *Service) publishLocked(q *Query) {
	s.queries[q.id] = q
	if q.spec.Follow {
		s.registerFollowLocked(q)
	}
	s.met.activeQueries.Set(int64(len(s.queries)))
	if q.fromCache {
		s.met.cacheHits.Inc()
	} else {
		s.met.cacheMisses.Inc()
	}
	s.met.queries(q.dbName, q.mode()).Inc()
}

// QueryTrace returns the execution trace of the session with that id:
// a live snapshot while the session is open, the final trace from the
// bounded finished history after it closed.
func (s *Service) QueryTrace(id string) (*obs.TraceData, bool) {
	s.mu.Lock()
	q, live := s.queries[id]
	d, ok := s.finishedTraces[id]
	s.mu.Unlock()
	if live {
		return q.trace.Snapshot(), true
	}
	return d, ok
}

// retainTrace adds a closed session's final trace to the bounded FIFO
// history QueryTrace serves from.
func (s *Service) retainTrace(d *obs.TraceData) {
	if d == nil || s.cfg.TraceHistory < 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.finishedTraces[d.ID]; !ok {
		s.finishedOrder = append(s.finishedOrder, d.ID)
	}
	s.finishedTraces[d.ID] = d
	for len(s.finishedOrder) > s.cfg.TraceHistory {
		old := s.finishedOrder[0]
		s.finishedOrder = s.finishedOrder[1:]
		delete(s.finishedTraces, old)
	}
}

// Query returns the open session with the given id.
func (s *Service) Query(id string) (*Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	q, ok := s.queries[id]
	return q, ok
}

// EvictIdle closes every session idle for longer than the configured
// timeout and returns how many were evicted. fdserve runs it on a
// timer; it is also safe to call inline.
func (s *Service) EvictIdle() int {
	deadline := s.cfg.Now().Add(-s.cfg.IdleTimeout).UnixNano()
	s.mu.Lock()
	var expired []*Query
	for id, q := range s.queries {
		if q.busy.Load() > 0 {
			continue // a page is computing or queued: in use, not idle
		}
		if q.lastUsed.Load() < deadline {
			expired = append(expired, q)
			delete(s.queries, id)
		}
	}
	s.met.activeQueries.Set(int64(len(s.queries)))
	s.mu.Unlock()
	s.met.queriesEvicted.Add(int64(len(expired)))
	for _, q := range expired {
		q.shut()
		s.cfg.Logger.Info("evicted idle query session", "id", q.id, "db", q.dbName)
	}
	return len(expired)
}

// Stats snapshots the counters. The counts read the metrics registry:
// a session started is a cache hit or a cache miss, and ResultsServed
// sums fd_results_served_total over its databases.
func (s *Service) Stats() Stats {
	m := s.met
	hits, misses := m.cacheHits.Value(), m.cacheMisses.Value()
	st := Stats{
		QueriesStarted:    hits + misses,
		QueriesDone:       m.queriesFinished.Value(),
		QueriesEvicted:    m.queriesEvicted.Value(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEvictions:    m.cacheEvictions.Value(),
		ResultsServed:     m.reg.Total("fd_results_served_total"),
		StoreRetries:      m.storeRetries.Value(),
		AdmissionTimeouts: m.admissionTimeouts.Value(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st.Databases, st.ActiveQueries = len(s.dbs), len(s.queries)
	st.CacheEntries, st.CacheBytes = s.cache.len(), s.cache.bytes()
	st.QuarantinedDatabases = append([]QuarantineInfo(nil), s.quarantined...)
	st.Engine = s.engine
	return st
}

// Close shuts the service: every open session is closed and further
// calls fail. Safe to call more than once.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	open := make([]*Query, 0, len(s.queries))
	for id, q := range s.queries {
		open = append(open, q)
		delete(s.queries, id)
	}
	s.closeSubsLocked("")
	s.met.activeQueries.Set(0)
	s.mu.Unlock()
	for _, q := range open {
		q.shut()
	}
	s.cfg.Logger.Info("service closed", "sessions_closed", len(open))
}

// Query is one open query session: a suspended enumeration paged with
// Next(k). Sessions are safe for concurrent use; pages are serialised
// per session.
type Query struct {
	id     string
	svc    *Service
	spec   fd.Query
	dbName string
	key    string
	db     *dbEntry
	// cancel releases the session's derived context, aborting any
	// in-flight enumeration step; called on Close, eviction and
	// Service.Close.
	cancel context.CancelFunc

	// lastUsed is the unix-nano time of the last page, read without
	// the session lock by the eviction sweep.
	lastUsed atomic.Int64
	// busy counts in-flight Next calls; the eviction sweep skips busy
	// sessions (a page queued on the worker semaphore longer than the
	// idle timeout is in use, not idle).
	busy atomic.Int32

	// trace records the session's execution spans; started anchors the
	// slow-query wall time.
	trace   *obs.Trace
	started time.Time
	// pageSpan points at the page span currently being computed, so
	// the parallel executor's TaskObserver (running on worker
	// goroutines) attaches task spans to the right page without taking
	// the session lock — shut holds it while Close waits for those
	// very workers.
	pageSpan atomic.Pointer[obs.Span]
	// progress and delay are the session's live-introspection trackers:
	// progress carries the atomic counters GET /queries/{id}/progress
	// reads mid-flight, delay the inter-result gaps feeding
	// fd_result_delay_seconds and the delay-SLO watchdog. Both are set
	// once at StartQuery, before the session is published.
	progress *obs.Progress
	delay    *obs.Delay
	// delayHist and results are the pre-resolved fd_result_delay_seconds
	// series for this session's (db, mode) and fd_results_served_total
	// series for its db, so neither the per-result sink nor a page does
	// a registry lookup.
	delayHist *obs.Histogram
	results   *obs.Counter
	// sloLogged makes the delay-SLO warning once-per-session (every
	// breach still counts in fd_delay_slo_breaches_total).
	sloLogged atomic.Bool

	mu        sync.Mutex
	cur       fd.Results // nil when serving from cache
	cached    []Result   // cache-hit source (shared, read-only)
	fromCache bool
	gathered  []Result // miss: accumulated for the cache insert
	// uncacheable marks sessions whose output must not (caching
	// disabled) or can no longer (over CacheMaxResults) be cached.
	uncacheable bool
	// engineSlots counts extra intra-query workers held from the
	// service's shared engine budget, returned when the cursor ends.
	engineSlots int
	// sub is the session's live-maintenance subscription (specs with
	// Follow); set once at StartQuery, before the session is published.
	sub *subscription
	// lastStats is the previous cursor Stats() snapshot; page spans
	// carry the telescoping difference from it, so the trace's span
	// stats sum to the final counters.
	lastStats fd.Stats
	served    int
	done      bool
	closed    bool
}

// mode names the session's evaluation mode for metric labels (the
// spec's mode with the zero value resolved).
func (q *Query) mode() string {
	if q.spec.Mode == "" {
		return string(fd.ModeExact)
	}
	return string(q.spec.Mode)
}

// end ends the session's enumeration, once, whether it drained or was
// closed early; callers hold q.mu. A live cursor is closed, its
// remaining counters fold into span, which end then ends — the page's
// next span on a drain; nil on an early close, which records a close
// span instead — and into the service's engine aggregate, and its
// engine slots go back. Every session then has its context cancelled,
// counts once in fd_queries_finished_total, gets its delay figures
// stamped onto the trace root (delay_max_ms / delay_p99_ms) and enters
// PhaseDone.
func (q *Query) end(span *obs.Span) {
	if q.done {
		return
	}
	q.done = true
	// Cancelling first aborts any worker still running ahead, so the
	// Close below returns promptly.
	q.cancel()
	if q.cur != nil {
		if span == nil {
			span = q.trace.Root().Start("close")
		}
		// Close before the stats snapshot: a parallel cursor folds its
		// last in-flight workers' counters as Close waits for them (their
		// task spans attach to the current page, which is why pageSpan
		// clears only after the Close).
		q.cur.Close()
		stats := q.cur.Stats()
		q.pageSpan.Store(nil)
		span.SetStats(stats.Sub(q.lastStats).Map())
		span.End()
		q.lastStats = stats
		q.cur = nil
		q.releaseEngine()
		q.svc.mu.Lock()
		q.svc.engine.Add(stats)
		q.svc.mu.Unlock()
	}
	q.svc.met.queriesFinished.Inc()
	if d := q.delay.Snapshot(); d.Count > 0 {
		q.trace.Root().SetAttr("delay_max_ms", strconv.FormatFloat(d.MaxMillis, 'g', 6, 64))
		q.trace.Root().SetAttr("delay_p99_ms", strconv.FormatFloat(d.P99Millis, 'g', 6, 64))
	}
	q.progress.SetPhase(obs.PhaseDone)
}

// logSlow logs a drained session whose wall time met the slow-query
// threshold. The warning carries the trace summary and the delay
// figures, so a slow query is diagnosable from the log line alone.
func (q *Query) logSlow() {
	dur := q.svc.cfg.Now().Sub(q.started)
	if sq := q.svc.cfg.SlowQuery; sq <= 0 || dur < sq {
		return
	}
	d := q.delay.Snapshot()
	q.svc.met.slowQueries.Inc()
	q.svc.cfg.Logger.Warn("slow query",
		"id", q.id, "db", q.dbName, "mode", q.mode(),
		"duration", dur, "served", q.served,
		"delay_max_ms", d.MaxMillis, "delay_p99_ms", d.P99Millis,
		"trace", q.trace.Snapshot().Summary())
}

// observeDelay is the session's delay-tracker sink, invoked once per
// produced result with the inter-result gap: it feeds the
// fd_result_delay_seconds histogram and enforces the delay SLO —
// every breach counts, the first one per session also logs a warning
// with the trace summary.
func (q *Query) observeDelay(sec float64) {
	q.delayHist.Observe(sec)
	slo := q.svc.cfg.DelaySLO
	if slo <= 0 || sec <= slo.Seconds() {
		return
	}
	q.svc.met.delayBreaches.Inc()
	if q.sloLogged.CompareAndSwap(false, true) {
		q.svc.cfg.Logger.Warn("delay SLO breach",
			"id", q.id, "db", q.dbName, "mode", q.mode(),
			"slo", slo, "gap", time.Duration(sec*float64(time.Second)).Round(time.Microsecond),
			"trace", q.trace.Snapshot().Summary())
	}
}

// ProgressReport is the live view of one session: the enumeration's
// atomic progress counters plus the delay summary, readable mid-page
// without taking the session lock. fdserve serves it at
// GET /queries/{id}/progress.
type ProgressReport struct {
	ID        string `json:"id"`
	DB        string `json:"db"`
	Mode      string `json:"mode"`
	FromCache bool   `json:"from_cache"`
	obs.ProgressData
	Delay obs.DelaySummary `json:"delay"`
}

// Progress snapshots the session's live counters. It never blocks on
// the session lock, so it answers truthfully mid-page — the point of
// the endpoint.
func (q *Query) Progress() ProgressReport {
	return ProgressReport{
		ID:           q.id,
		DB:           q.dbName,
		Mode:         q.mode(),
		FromCache:    q.fromCache,
		ProgressData: q.progress.Snapshot(),
		Delay:        q.delay.Snapshot(),
	}
}

// releaseEngine returns the session's extra intra-query workers to the
// shared budget. Idempotent; called once the cursor is closed.
func (q *Query) releaseEngine() {
	for ; q.engineSlots > 0; q.engineSlots-- {
		<-q.svc.engineSem
	}
}

// ID returns the session id.
func (q *Query) ID() string { return q.id }

// Spec returns the query's declarative spec.
func (q *Query) Spec() fd.Query { return q.spec }

// DatabaseName returns the name the queried database is registered
// under.
func (q *Query) DatabaseName() string { return q.dbName }

// Universe returns the database's shared rendering universe (its DB is
// the database the query runs against), so front ends pad results
// without rebuilding attribute layouts per page.
func (q *Query) Universe() *tupleset.Universe { return q.db.u }

// FromCache reports whether the session serves from the result cache.
func (q *Query) FromCache() bool { return q.fromCache }

// Trace snapshots the session's execution trace so far.
func (q *Query) Trace() *obs.TraceData { return q.trace.Snapshot() }

// Served returns how many results the session has handed out.
func (q *Query) Served() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.served
}

func (q *Query) touch(now time.Time) { q.lastUsed.Store(now.UnixNano()) }

// Next returns the next page of up to k results (k is clamped to
// [1, MaxPageSize]) and reports whether the enumeration is complete.
// A page against a live cursor occupies one worker slot for its
// duration — the admission control bounding concurrent engine work.
func (q *Query) Next(k int) ([]Result, bool, error) {
	if k < 1 {
		k = 1
	}
	if limit := q.svc.cfg.MaxPageSize; k > limit {
		k = limit
	}
	q.busy.Add(1)
	defer q.busy.Add(-1)
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil, true, fmt.Errorf("service: query %s closed", q.id)
	}
	q.touch(q.svc.cfg.Now())
	defer func() { q.touch(q.svc.cfg.Now()) }()

	if q.fromCache {
		pStart := q.svc.cfg.Now()
		end := q.served + k
		if end > len(q.cached) {
			end = len(q.cached)
		}
		out := q.cached[q.served:end]
		q.served = end
		q.progress.AddEmitted(int64(len(out)))
		done := q.served == len(q.cached)
		if done && !q.done {
			// No cursor holds the derived context, but its cancel func
			// stays registered on the parent until called — end releases
			// it, so long-lived servers don't accumulate one registration
			// per cache hit.
			q.end(nil)
			q.logSlow()
		}
		q.results.Add(int64(len(out)))
		// Cached pages do no engine work; the span carries only the
		// emission count.
		q.trace.Root().Record("next", pStart, q.svc.cfg.Now().Sub(pStart),
			map[string]int64{"emitted": int64(len(out))},
			"k", strconv.Itoa(k), "cached", "true")
		return out, done, nil
	}
	if q.done {
		return nil, true, nil
	}

	page := q.trace.Root().Start("next", "k", strconv.Itoa(k))
	q.pageSpan.Store(page)
	adStart := q.svc.cfg.Now()
	if err := q.svc.acquire(); err != nil {
		// Shed, not failed: the session stays usable and the client may
		// retry the identical Next.
		q.pageSpan.Store(nil)
		page.SetAttr("outcome", "shed")
		page.End()
		return nil, false, err
	}
	page.Record("admission", adStart, q.svc.cfg.Now().Sub(adStart), nil)
	out := make([]Result, 0, k)
	for len(out) < k {
		r, ok := q.cur.Next()
		if !ok {
			break
		}
		out = append(out, r)
		if !q.uncacheable {
			q.gathered = append(q.gathered, r)
			if limit := q.svc.cfg.CacheMaxResults; limit > 0 && len(q.gathered) > limit {
				// Too large to cache: drop the accumulation so a huge
				// enumeration doesn't pin its whole output in memory.
				q.uncacheable = true
				q.gathered = nil
			}
		}
	}
	q.svc.release()
	q.served += len(out)

	if len(out) == k {
		stats := q.cur.Stats()
		q.pageSpan.Store(nil)
		page.SetStats(stats.Sub(q.lastStats).Map())
		page.End()
		q.lastStats = stats
		q.results.Add(int64(len(out)))
		return out, false, nil
	}

	// Exhausted (or failed/cancelled): end the session, folding its last
	// counters into this page, and on clean exhaustion publish the
	// drained list to the result cache.
	err := q.cur.Err()
	q.end(page)
	q.results.Add(int64(len(out)))
	if s := q.svc; err == nil && !q.uncacheable {
		s.mu.Lock()
		if !s.closed {
			s.met.cacheEvictions.Add(int64(s.cache.put(q.key, q.spec, q.gathered)))
			s.met.syncCache(s.cache)
		}
		s.mu.Unlock()
	}
	q.gathered = nil
	q.logSlow()
	return out, true, err
}

// Close ends the session early, releasing it from the registry. Closing
// an exhausted or already-closed session is a no-op.
func (q *Query) Close() {
	q.svc.mu.Lock()
	delete(q.svc.queries, q.id)
	q.svc.met.activeQueries.Set(int64(len(q.svc.queries)))
	q.svc.mu.Unlock()
	q.shut()
}

// shut closes the session state without touching the registry (the
// caller has already removed it). The session's final trace — with a
// terminal "close" span carrying any engine counters not yet
// attributed to a page — moves to the finished-trace history, so
// QueryTrace keeps answering for recently closed sessions.
func (q *Query) shut() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	q.svc.dropFollow(q)
	q.end(nil)
	q.trace.Root().End()
	q.svc.retainTrace(q.trace.Snapshot())
}
