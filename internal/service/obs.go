package service

import (
	"time"

	"repro/internal/obs"
)

// metrics is the service's registry with its fixed metric handles
// pre-resolved; per-database series are resolved through reg.
type metrics struct {
	reg *obs.Registry

	admissionWait     *obs.Histogram
	admissionTimeouts *obs.Counter
	queriesRejected   *obs.Counter
	queriesFinished   *obs.Counter
	queriesEvicted    *obs.Counter
	activeQueries     *obs.Gauge

	cacheHits      *obs.Counter
	cacheMisses    *obs.Counter
	cacheEvictions *obs.Counter
	cacheEntries   *obs.Gauge
	cacheBytes     *obs.Gauge

	storeRetries  *obs.Counter
	quarantines   *obs.Counter
	slowQueries   *obs.Counter
	delayBreaches *obs.Counter

	appendLatency *obs.Histogram
	cachePatches  *obs.Counter
}

func newMetrics() metrics {
	reg := obs.NewRegistry()
	return metrics{
		reg: reg,
		admissionWait: reg.Histogram("fd_admission_wait_seconds",
			"Time spent waiting for an admission worker slot."),
		admissionTimeouts: reg.Counter("fd_admission_timeouts_total",
			"Requests shed because no worker slot freed up within the admission timeout."),
		queriesRejected: reg.Counter("fd_queries_rejected_total",
			"Query specs rejected by validation."),
		queriesFinished: reg.Counter("fd_queries_finished_total",
			"Query sessions finished (drained or closed)."),
		queriesEvicted: reg.Counter("fd_queries_evicted_total",
			"Query sessions evicted after exceeding the idle timeout."),
		activeQueries: reg.Gauge("fd_active_queries",
			"Currently open query sessions."),
		cacheHits: reg.Counter("fd_cache_hits_total",
			"Queries served from the result cache."),
		cacheMisses: reg.Counter("fd_cache_misses_total",
			"Queries that had to open an enumeration cursor."),
		cacheEvictions: reg.Counter("fd_cache_evictions_total",
			"Result lists evicted from the cache by the entry or byte bound."),
		cacheEntries: reg.Gauge("fd_cache_entries",
			"Result lists currently cached."),
		cacheBytes: reg.Gauge("fd_cache_bytes",
			"Approximate heap bytes pinned by the result cache."),
		storeRetries: reg.Counter("fd_store_retries_total",
			"Transient store failures that were retried during persistence."),
		quarantines: reg.Counter("fd_quarantines_total",
			"Databases quarantined during recovery because their files failed to load."),
		slowQueries: reg.Counter("fd_slow_queries_total",
			"Completed queries whose wall time exceeded the slow-query threshold."),
		delayBreaches: reg.Counter("fd_delay_slo_breaches_total",
			"Inter-result gaps that exceeded the configured delay SLO."),
		appendLatency: reg.Histogram("fd_append_seconds",
			"Append maintenance latency: extend, durable log, delta enumeration, cache patch, registry swap."),
		cachePatches: reg.Counter("fd_cache_patches_total",
			"Cached result lists patched in place across an append instead of invalidated."),
	}
}

// appends returns the per-database applied-append-batch counter.
func (m metrics) appends(db string) *obs.Counter {
	return m.reg.Counter("fd_appends_total",
		"Append batches applied through incremental maintenance, by database.", "db", db)
}

// appendDeltaResults returns the per-database delta-result counter: the
// new maximal sets append maintenance produced.
func (m metrics) appendDeltaResults(db string) *obs.Counter {
	return m.reg.Counter("fd_append_delta_results_total",
		"Delta results produced by incremental append maintenance, by database.", "db", db)
}

// resultDelay returns the per-database, per-mode inter-result delay
// histogram — the measured form of the paper's polynomial-delay
// guarantee. Sessions resolve their series once at start; the
// per-result path only observes.
func (m metrics) resultDelay(db, mode string) *obs.Histogram {
	return m.reg.Histogram("fd_result_delay_seconds",
		"Gap between consecutive results of one enumeration, by database and mode.",
		"db", db, "mode", mode)
}

// queries returns the per-database, per-mode query counter.
func (m metrics) queries(db, mode string) *obs.Counter {
	return m.reg.Counter("fd_queries_total",
		"Query sessions started, by database and mode.", "db", db, "mode", mode)
}

// results returns the per-database served-result-rows counter; each
// session resolves its series once at start.
func (m metrics) results(db string) *obs.Counter {
	return m.reg.Counter("fd_results_served_total",
		"Result rows served to clients, by database.", "db", db)
}

// storeOp wires a Store's Instrument seam into the registry: one
// latency histogram and one error counter per operation kind.
func (m metrics) storeOp(op string, d time.Duration, err error) {
	m.reg.Histogram("fd_store_op_seconds",
		"Store operation latency, by operation.", "op", op).Observe(d.Seconds())
	if err != nil {
		m.reg.Counter("fd_store_op_errors_total",
			"Store operations that returned an error, by operation.", "op", op).Inc()
	}
}

// syncCache refreshes the cache occupancy gauges; callers hold the
// service lock (cache state is guarded by it).
func (m metrics) syncCache(c *resultCache) {
	m.cacheEntries.Set(int64(c.len()))
	m.cacheBytes.Set(c.bytes())
}
