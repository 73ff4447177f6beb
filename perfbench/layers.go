package main

import (
	"fmt"
	"strconv"
)

// traceSpan mirrors the span JSON of GET /queries/{id}/trace.
type traceSpan struct {
	Name     string            `json:"name"`
	Attrs    map[string]string `json:"attrs"`
	Start    int64             `json:"start_unix_nano"`
	Dur      int64             `json:"duration_nanos"`
	Stats    map[string]int64  `json:"stats"`
	Children []*traceSpan      `json:"children"`
}

type traceData struct {
	ID   string     `json:"id"`
	Root *traceSpan `json:"root"`
}

func (c *client) trace(id string) (*traceData, error) {
	var td traceData
	if err := c.getJSON("/queries/"+id+"/trace", "trace", &td); err != nil {
		return nil, err
	}
	if td.Root == nil {
		return nil, fmt.Errorf("trace %s: no root span", id)
	}
	return &td, nil
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// engineCounters are the core.Stats counters summed from span stats.
var engineCounters = []string{"emitted", "jcc_checks", "list_scans", "tuples_scanned", "sig_hits", "index_probes"}

// layerAcc attributes traced sessions to the layers: client round trips
// minus the server spans they contain give the HTTP layer's self time,
// the session span tree gives the service steps, and span stats give
// the engine's work.
type layerAcc struct {
	createSelf, nextSelf                   []float64 // ms
	validate, cache, admission, open, next []float64 // ms
	closeMs, rankOpen                      []float64 // ms
	bytes, results                         int64
	engine                                 map[string]int64
	tasks                                  int64
	taskMs, parWallMs                      float64
	// unmatched counts sessions whose trace had a different number of
	// next spans than the client made calls; they give no next self time.
	unmatched int
}

func newLayerAcc() *layerAcc { return &layerAcc{engine: make(map[string]int64)} }

// addSession folds one session and its server trace into the
// accumulator.
func (a *layerAcc) addSession(s *session, td *traceData) {
	var serverCreate int64
	var nextSpans []*traceSpan
	var workers int
	var openStart, lastEnd int64
	for _, sp := range td.Root.Children {
		switch sp.Name {
		case "validate":
			a.validate = append(a.validate, ms(sp.Dur))
			serverCreate += sp.Dur
		case "cache":
			a.cache = append(a.cache, ms(sp.Dur))
			serverCreate += sp.Dur
		case "admission":
			a.admission = append(a.admission, ms(sp.Dur))
			serverCreate += sp.Dur
		case "open":
			a.open = append(a.open, ms(sp.Dur))
			serverCreate += sp.Dur
			openStart = sp.Start
			workers, _ = strconv.Atoi(sp.Attrs["workers"])
			if s.spec.ranked() {
				a.rankOpen = append(a.rankOpen, ms(sp.Dur))
			}
			a.addStats(sp.Stats)
		case "next":
			nextSpans = append(nextSpans, sp)
			a.next = append(a.next, ms(sp.Dur))
			lastEnd = max(lastEnd, sp.Start+sp.Dur)
			if sp.Attrs["cached"] != "true" {
				a.addStats(sp.Stats)
			}
			for _, c := range sp.Children {
				switch c.Name {
				case "admission":
					a.admission = append(a.admission, ms(c.Dur))
				case "task":
					a.tasks++
					a.taskMs += ms(c.Dur)
				}
			}
		case "close":
			a.closeMs = append(a.closeMs, ms(sp.Dur))
			a.addStats(sp.Stats)
		case "task":
			a.tasks++
			a.taskMs += ms(sp.Dur)
		}
	}
	if workers > 1 && lastEnd > openStart {
		// Workers keep enumerating between pages, so the busy time is
		// set against the whole open → last page interval.
		a.parWallMs += float64(workers) * ms(lastEnd-openStart)
	}
	a.createSelf = append(a.createSelf, ms(int64(s.create.dur())-serverCreate))
	if len(nextSpans) != len(s.nexts) {
		a.unmatched++
	} else {
		for i, sp := range nextSpans {
			a.nextSelf = append(a.nextSelf, ms(int64(s.nexts[i].dur())-sp.Dur))
		}
	}
	a.bytes += int64(s.bytes)
	a.results += int64(len(s.sets))
}

func (a *layerAcc) addStats(st map[string]int64) {
	for _, k := range engineCounters {
		a.engine[k] += st[k]
	}
}

// report writes the HTTP, service and engine layer metrics.
func (a *layerAcc) report(o *outcome) {
	o.layer("fdserve.create_self_ms_p50", median(a.createSelf))
	o.layer("fdserve.next_self_ms_p50", median(a.nextSelf))
	v, _ := pct(a.nextSelf, 0.99)
	o.layer("fdserve.next_self_ms_p99", v)
	o.layer("fdserve.bytes_per_result", ratio(float64(a.bytes), float64(a.results)))
	o.layer("service.validate_ms_p50", median(a.validate))
	o.layer("service.cache_ms_p50", median(a.cache))
	v, _ = pct(a.admission, 0.99)
	o.layer("service.admission_wait_ms_p99", v)
	o.layer("service.open_ms_p50", median(a.open))
	o.layer("service.next_ms_p50", median(a.next))
	o.layer("service.close_ms_p50", median(a.closeMs))
	o.layer("rank.open_ms_p50", median(a.rankOpen))

	e := a.engine
	o.layer("core.results", float64(e["emitted"]))
	o.layer("core.jcc_checks", float64(e["jcc_checks"]))
	o.layer("core.list_scans", float64(e["list_scans"]))
	o.layer("core.tuples_scanned", float64(e["tuples_scanned"]))
	o.layer("core.sig_hits", float64(e["sig_hits"]))
	o.layer("core.index_probes", float64(e["index_probes"]))
	o.layer("core.jcc_per_result", ratio(float64(e["jcc_checks"]), float64(e["emitted"])))
	o.layer("core.sig_hit_ratio", ratio(float64(e["sig_hits"]), float64(e["jcc_checks"])))
	o.layer("core.tasks", float64(a.tasks))
	o.layer("core.task_ms_sum", a.taskMs)
	o.layer("core.parallel_eff", ratio(a.taskMs, a.parWallMs))
	if a.unmatched > 0 {
		o.add("fdserve.unmatched_traces", "count", float64(a.unmatched), a.unmatched, "", 0)
	}
}

// minus is the change in the service counters since before.
func (s serviceStats) minus(before serviceStats) serviceStats {
	return serviceStats{
		CacheHits:      s.CacheHits - before.CacheHits,
		CacheMisses:    s.CacheMisses - before.CacheMisses,
		CacheEvictions: s.CacheEvictions - before.CacheEvictions,
	}
}

func (s *serviceStats) add(d serviceStats) {
	s.CacheHits += d.CacheHits
	s.CacheMisses += d.CacheMisses
	s.CacheEvictions += d.CacheEvictions
}

// reportCache writes the cache metrics of a /stats delta.
func reportCache(o *outcome, d serviceStats) {
	hits, misses := float64(d.CacheHits), float64(d.CacheMisses)
	o.layer("service.cache_hit_ratio", ratio(hits, hits+misses))
	o.layer("service.cache_evictions", float64(d.CacheEvictions))
}

// overhead is the traced run's change in a median against the same
// run's untraced half.
func overhead(untraced, traced []float64) float64 {
	u := median(untraced)
	return ratio(median(traced)-u, u)
}
