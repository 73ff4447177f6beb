package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	fd "repro"
	"repro/internal/relation"
	"repro/internal/service"
	"repro/internal/tupleset"
)

// handleFollow streams a follow session as newline-delimited JSON over
// a chunked response: first the base result set (every result of the
// session's database version), then a "live" marker, then one event
// group per append landing on the database — "retract" lines for base
// results the append's delta subsumed, "result" lines for the delta's
// new maximal sets, and a "delta" summary line per append. The stream
// ends with an "end" line when the subscription closes (session
// deleted, database dropped, server shutdown) or when the optional
// ?appends=N bound has been observed; disconnecting the request simply
// abandons it (the session stays open until deleted or evicted).
//
// Events:
//
//	{"event":"result","result":{...}}             one maximal set
//	{"event":"live","total":N}                    base drained, now live
//	{"event":"retract","set":"{a1, b2}"}          no longer maximal
//	{"event":"delta","appends":i,"added":a,"removed":r,"total":N}
//	{"event":"end","total":N}                     subscription over
//	{"event":"error","error":"..."}               enumeration failed
//
// Delta results are rendered over the extended database they are bound
// to; retractions identify results by the same "set" notation their
// "result" line carried. The stream lives at most the server's write
// timeout (10 minutes); clients reconnect by opening a fresh follow
// query — the base drain then serves from the patched result cache.
func (s *server) handleFollow(w http.ResponseWriter, r *http.Request) {
	q, ok := s.query(w, r)
	if !ok {
		return
	}
	if !q.IsFollow() {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("query %q is not a follow subscription (start it with \"follow\": true)", q.ID()))
		return
	}
	maxAppends := 0
	if raw := r.URL.Query().Get("appends"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 1 {
			writeError(w, http.StatusBadRequest, fmt.Errorf("invalid appends bound %q", raw))
			return
		}
		maxAppends = v
	}
	fl := http.NewResponseController(w)
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	// live tracks the stream's current result set: the set for the
	// subsumption check (Delta.Subsumes is universe-independent, so sets
	// from different database versions compare directly) and the
	// database it is bound to, which renders the set notation a retract
	// line identifies it by.
	type liveEntry struct {
		set *fd.TupleSet
		db  *relation.Database
	}
	var live []liveEntry

	// writeResult writes one "result" line rendered over u, and reports
	// whether the stream may go on.
	var line []byte
	writeResult := func(u *tupleset.Universe, res service.Result) bool {
		var err error
		line = append(line[:0], `{"event":"result","result":`...)
		if line, err = service.AppendResult(line, u, res); err != nil {
			enc.Encode(map[string]any{"event": "error", "error": err.Error()})
			return false
		}
		line = append(line, "}\n"...)
		w.Write(line)
		live = append(live, liveEntry{set: res.Set, db: u.DB})
		return true
	}

	u := q.Universe()
	for {
		page, done, err := q.Next(256)
		if err != nil {
			enc.Encode(map[string]any{"event": "error", "error": err.Error()})
			return
		}
		for _, res := range page {
			if !writeResult(u, res) {
				return
			}
		}
		if done {
			break
		}
	}
	enc.Encode(map[string]any{"event": "live", "total": len(live)})
	fl.Flush()

	sig := q.FollowSignal()
	appends := 0
	for {
		batches, closed := q.FollowBatches()
		for _, b := range batches {
			appends++
			removed := 0
			kept := make([]liveEntry, 0, len(live))
			for _, le := range live {
				if b.Delta.Subsumes(le.set) {
					removed++
					enc.Encode(map[string]any{"event": "retract", "set": le.set.Format(le.db)})
					continue
				}
				kept = append(kept, le)
			}
			live = kept
			for _, set := range b.Delta.Added {
				if !writeResult(b.U, service.Result{Set: set}) {
					return
				}
			}
			enc.Encode(map[string]any{"event": "delta",
				"appends": appends, "added": len(b.Delta.Added), "removed": removed, "total": len(live)})
			fl.Flush()
			if maxAppends > 0 && appends >= maxAppends {
				enc.Encode(map[string]any{"event": "end", "total": len(live)})
				fl.Flush()
				return
			}
		}
		if closed {
			enc.Encode(map[string]any{"event": "end", "total": len(live)})
			fl.Flush()
			return
		}
		select {
		case <-sig:
		case <-r.Context().Done():
			return
		}
	}
}
