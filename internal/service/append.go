package service

import (
	"errors"
	"fmt"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/tupleset"
)

// ErrUnknownRelation marks appends addressing a relation the database
// does not have; front ends turn it into 404 alongside
// ErrUnknownDatabase.
var ErrUnknownRelation = errors.New("unknown relation")

// ErrStorage marks registrations, appends and drops whose store
// operation failed (after retry exhaustion, where retried): the change
// was NOT applied (memory and disk still agree), but the failure is
// operational, not the client's — front ends turn it into 500 rather
// than 400.
var ErrStorage = errors.New("storage failure")

// maintainedFamily reports the predicate family whose append deltas
// keep spec's drained result list current, and false when no delta
// can: exactly the specs fd.Query.Validate admits Follow on, so the
// cache keeps the lists a follow session could maintain. One delta
// enumeration per family patches every such cached list and feeds
// every subscription of that family.
func maintainedFamily(spec fd.Query) (fd.Family, bool) {
	spec.Follow = true
	return spec.Family(), spec.Validate() == nil
}

// familyDelta enumerates the delta of one family over the extended
// entry: the maximal sets of the new database whose relation-relIdx
// member is an appended tuple. The delta runs use the one engine
// configuration fd.Open runs.
func familyDelta(ne *dbEntry, relIdx, firstNew int, fam fd.Family) (*delta.Delta, error) {
	return delta.Compute(ne.u, fam.Predicate(), relIdx, firstNew, core.Serving())
}

// AppendRows appends tuples to relation relName of the registered
// database dbName through incremental maintenance: the registered
// database is extended in place (relation.Database.Extend — the
// existing columns, dictionary and join-index postings are shared, not
// rebuilt), the result-set delta of the batch is enumerated per query
// family that needs it, drained result-cache entries are patched
// across the fingerprint transition instead of orphaned, and live
// follow subscriptions receive the delta. Sessions opened before the
// swap keep enumerating the pre-append database.
//
// With a configured Store the rows are appended to the database's
// durable row log first (no snapshot rewrite), so a restart replays
// them; a log failure leaves disk, registry and cache unchanged and
// is reported wrapped in ErrStorage.
func (s *Service) AppendRows(dbName, relName string, tuples []relation.Tuple) (DatabaseInfo, error) {
	if len(tuples) == 0 {
		return DatabaseInfo{}, fmt.Errorf("service: no rows to append")
	}
	start := time.Now()
	s.appendMu.Lock()
	defer s.appendMu.Unlock()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return DatabaseInfo{}, fmt.Errorf("service: closed")
	}
	entry, ok := s.dbs[dbName]
	if !ok {
		s.mu.Unlock()
		return DatabaseInfo{}, fmt.Errorf("service: %w %q", ErrUnknownDatabase, dbName)
	}
	// Families that will need a delta: one per patchable cached list
	// under the pre-append fingerprint, one per live subscription. The
	// registered database is frozen, so Fingerprint here is a cache
	// read.
	oldFP := entry.db.Fingerprint()
	fams := make(map[fd.Family]*delta.Delta)
	for _, ce := range s.cache.withFingerprint(oldFP) {
		if ce.maintainable {
			fams[ce.family] = nil
		}
	}
	for _, sub := range s.subs[dbName] {
		fams[sub.fam] = nil
	}
	s.mu.Unlock()

	old := entry.db
	relIdx, ok := old.RelationIndex(relName)
	if !ok {
		return DatabaseInfo{}, fmt.Errorf("service: %w: database %q has no relation %q",
			ErrUnknownRelation, dbName, relName)
	}
	firstNew := old.Relation(relIdx).Len()
	ext, err := old.Extend(relIdx, tuples)
	if err != nil {
		return DatabaseInfo{}, err
	}
	newFP := ext.Fingerprint()

	// Durability first: if the log write fails, nothing was swapped.
	// The append is bound to the snapshot fingerprint of the entry we
	// extended, so a drop + re-register racing this call fails the log
	// write (the replacement snapshot carries a different fingerprint)
	// instead of durably logging rows the caller will be told failed.
	if s.cfg.Store != nil {
		err := s.retryStore(func() error {
			return s.cfg.Store.Append(dbName, relName, tuples, entry.snapFP)
		})
		if err != nil {
			if !retryable(err) {
				// Permanent: the caller's database is gone or replaced
				// mid-call, not a storage fault.
				return DatabaseInfo{}, err
			}
			return DatabaseInfo{}, fmt.Errorf("service: appending rows to %q: %w: %w",
				dbName, ErrStorage, err)
		}
	}

	ne := &dbEntry{name: dbName, db: ext, u: tupleset.NewUniverse(ext), snapFP: entry.snapFP}

	// Enumerate the needed deltas outside the registry lock — this is
	// the expensive part, and it only reads the frozen extended
	// database.
	added := 0
	for fam := range fams {
		d, err := familyDelta(ne, relIdx, firstNew, fam)
		if err != nil {
			// Leave the family's delta nil: its cache entries are dropped
			// and its subscriptions closed below — degraded, never wrong.
			s.cfg.Logger.Warn("delta enumeration failed; falling back to invalidation",
				"db", dbName, "sim", fam.Sim, "tau", fam.Tau, "error", err)
			continue
		}
		fams[fam] = d
		added += len(d.Added)
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return DatabaseInfo{}, fmt.Errorf("service: closed")
	}
	if cur, ok := s.dbs[dbName]; !ok || cur != entry {
		// Dropped while we extended. The drop deleted the snapshot and
		// log; a drop + re-register instead fails the fingerprint-bound
		// log write above. Disk is consistent either way.
		s.mu.Unlock()
		return DatabaseInfo{}, fmt.Errorf("service: database %q dropped during append", dbName)
	}
	s.dbs[dbName] = ne
	patched, evicted := s.patchCacheLocked(dbName, oldFP, newFP, fams)
	// A follow query that started after the family scan is in
	// s.subs now; its family may have no delta yet — enumerate it
	// inline (appends are serialised and the run only reads the frozen
	// extended database, so holding the lock bounds only this rare
	// race window).
	for id, sub := range s.subs[dbName] {
		d := fams[sub.fam]
		if d == nil {
			var err error
			d, err = familyDelta(ne, relIdx, firstNew, sub.fam)
			if err != nil {
				s.cfg.Logger.Warn("delta enumeration failed; closing subscription",
					"db", dbName, "query", id, "error", err)
				delete(s.subs[dbName], id)
				sub.close()
				continue
			}
			fams[sub.fam] = d
			added += len(d.Added)
		}
		sub.push(FollowBatch{Delta: d, U: ne.u})
	}
	s.met.syncCache(s.cache)
	s.mu.Unlock()

	s.met.appends(dbName).Inc()
	s.met.appendDeltaResults(dbName).Add(int64(added))
	s.met.cachePatches.Add(int64(patched))
	s.met.cacheEvictions.Add(int64(evicted))
	s.met.appendLatency.Observe(time.Since(start).Seconds())
	info := databaseInfo(dbName, ext)
	s.cfg.Logger.Info("append applied incrementally",
		"db", dbName, "relation", relName, "rows", len(tuples),
		"delta_results", added, "cache_patched", patched,
		"fingerprint", info.Fingerprint)
	return info, nil
}

// patchCacheLocked rewrites the result-cache entries of the appended
// database across its fingerprint transition: every patchable entry
// under the old fingerprint is re-inserted under the new one with its
// list patched by the family's delta; non-patchable entries (ranked or
// bounded specs, or a family whose delta failed) are dropped. Entries
// under the old fingerprint survive untouched only when another
// registered database still carries that content — the key is by
// content, and those lists remain correct for it. Callers hold s.mu.
func (s *Service) patchCacheLocked(dbName string, oldFP, newFP uint64, fams map[fd.Family]*delta.Delta) (patched, evicted int) {
	shared := false
	for _, e := range s.dbs {
		if e.name != dbName && e.db.Fingerprint() == oldFP {
			shared = true
			break
		}
	}
	for _, ce := range s.cache.withFingerprint(oldFP) {
		var d *delta.Delta
		if ce.maintainable {
			d = fams[ce.family]
		}
		if d == nil {
			if !shared {
				s.cache.remove(ce.key)
			}
			continue
		}
		results, _ := delta.Patch(d, ce.results, resultSet, resultOf)
		evicted += s.cache.put(cacheKey{newFP, ce.key.canonical}, ce.family, true, results)
		if !shared {
			s.cache.remove(ce.key)
		}
		patched++
	}
	return patched, evicted
}

// resultSet and resultOf adapt cached Results to delta.Patch.
func resultSet(r Result) *tupleset.Set { return r.Set }
func resultOf(t *tupleset.Set) Result  { return Result{Set: t} }
