package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	fd "repro"
	"repro/internal/relation"
)

// workloads maps --workload to the function that runs it.
var workloads = map[string]func(*harness) (*outcome, error){
	"cold-drain":     coldDrain,
	"hot-serve":      hotServe,
	"append-recover": appendRecover,
}

// setUp starts a server and prepares it, cfg.setups times, recording
// each start → prepared time; all but the last server are stopped.
// dataDir names the data directory of set-up i ("" for in-memory).
func (h *harness) setUp(o *outcome, dataDir func(i int) string, prepare func(*server) error) (*server, error) {
	var srv *server
	for i := 0; i < h.cfg.setups; i++ {
		if srv != nil {
			h.stopServer(srv)
		}
		dir := dataDir(i)
		start := time.Now()
		s, err := h.startServer(dir)
		if err != nil {
			return nil, err
		}
		if err := prepare(s); err != nil {
			h.stopServer(s)
			return nil, fmt.Errorf("set-up: %w", err)
		}
		o.setups = append(o.setups, time.Since(start).Seconds())
		srv = s
	}
	return srv, nil
}

func noDataDir(int) string { return "" }

// coldQuery is one cold-drain query with the database it owns.
type coldQuery struct {
	fam  family
	name string
	db   *relation.Database
	body []byte
	fp   string
}

// coldDrain: one closed-loop client on one connection runs queries that
// never repeat a (database, query) pair, so the engine does the work and
// the result cache never hits.
func coldDrain(h *harness) (*outcome, error) {
	sz := h.cfg.sizes
	o := newOutcome()
	perFam := max(sz.coldPoolMin, int(math.Ceil(h.cfg.seconds*sz.coldPoolPerSecond)))
	pool := make([]coldQuery, 0, perFam*len(sz.cold))
	for i := 0; i < perFam*len(sz.cold); i++ {
		fam := sz.cold[i%len(sz.cold)]
		db, err := fam.shape.build(mixSeed(h.cfg.seed, 1, int64(i)))
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("c%03d", i)
		body, err := encodeDatabase(name, db)
		if err != nil {
			return nil, err
		}
		pool = append(pool, coldQuery{fam: fam, name: name, db: db, body: body, fp: fingerprint(db)})
	}
	h.prov.Loop, h.prov.Connections = "closed, 1 client", 1
	h.prov.ServerFlags = serverFlags
	h.prov.Sizes = describe("databases", fmt.Sprint(len(pool)), "first_page", "10", "drain_page", "1024")
	for _, f := range sz.cold {
		h.prov.Sizes[f.name] = f.shape.String()
	}

	srv, err := h.setUp(o, noDataDir, func(s *server) error {
		c := h.newClient(s)
		defer c.close()
		for _, q := range pool {
			if err := c.upload(q.name, q.body, q.fp); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.stopServer(srv)
	c := h.newClient(srv)
	defer c.close()

	before, err := c.stats()
	if err != nil {
		return nil, err
	}
	acc := newLayerAcc()
	var querySamples, firstSamples, untraced, traced []float64
	perFamily, familyFirst := make(map[string][]float64), make(map[string][]float64)
	sessions := make([]*session, len(pool))
	results := 0
	start := time.Now()
	deadline := start.Add(time.Duration(h.cfg.seconds * float64(time.Second)))
	ran := 0
	for i, q := range pool {
		if !time.Now().Before(deadline) {
			break
		}
		// A traced run traces every other query; the untraced ones in
		// between give the tracing overhead over the same stretch of time.
		isTraced := h.cfg.trace && i%2 == 1
		h.spans.setOn(isTraced)
		s := c.runSession(querySpec{Database: q.name, Query: q.fam.query}, 10, 1024)
		ran++
		qs, fs := opTimeout.Seconds(), opTimeout.Seconds()
		if s.err == nil {
			qs, fs = s.last.Sub(s.create.start).Seconds(), s.first.Sub(s.create.start).Seconds()
			results += len(s.sets)
			sessions[i] = s
		} else {
			fmt.Fprintln(h.log, "perfbench: cold query failed:", s.err)
		}
		querySamples = append(querySamples, qs)
		firstSamples = append(firstSamples, fs)
		perFamily[q.fam.name] = append(perFamily[q.fam.name], qs)
		familyFirst[q.fam.name] = append(familyFirst[q.fam.name], fs)
		if !isTraced {
			untraced = append(untraced, qs)
			continue
		}
		traced = append(traced, qs)
		if s.err == nil {
			td, err := c.trace(s.id)
			if err != nil {
				return nil, err
			}
			acc.addSession(s, td)
		}
	}
	wall := time.Since(start)
	h.spans.setOn(false)
	if ran == len(pool) && time.Now().Before(deadline) {
		fmt.Fprintf(h.log, "perfbench: cold-drain used its whole pool of %d queries in %v\n", len(pool), wall)
	}
	after, err := c.stats()
	if err != nil {
		return nil, err
	}

	delayWork, digest, err := verifyCold(h, pool, sessions)
	if err != nil {
		return nil, err
	}
	h.prov.CounterDigest = digest

	o.addPct("cold.query_s_p50", querySamples, 0.5, 1, "op_ms_p50")
	o.addPct("cold.query_s_p90", querySamples, 0.9, 1, "")
	o.addPct("cold.first_page_ms_p50", firstSamples, 0.5, 1000, "first_ms_p50")
	o.add("cold.results_per_s", "1/s", float64(results)/wall.Seconds(), ran, "results_per_s", 1)
	for _, f := range sz.cold {
		o.addPct("cold."+f.name+".query_s_p50", perFamily[f.name], 0.5, 1, "")
		o.addPct("cold."+f.name+".first_page_ms_p50", familyFirst[f.name], 0.5, 1000, "")
	}

	acc.report(o)
	reportCache(o, after.minus(before))
	o.layer("core.delay_work_max", float64(delayWork))
	o.layer("bench.trace_overhead_frac", overhead(untraced, traced))
	return o, nil
}

// digestQueries is how many leading cold-drain queries have their
// Workers-1 counters run twice, compared, and hashed into the digest.
const digestQueries = 10

// verifyCold checks every completed query against an in-process
// Workers-1 run of the same spec on the same generated database, after
// the clock stopped, on as many goroutines as there are CPUs. It
// returns the largest work between consecutive results and the digest
// of the leading queries' counters.
func verifyCold(h *harness, pool []coldQuery, sessions []*session) (int64, string, error) {
	stats := make([]fd.Stats, len(sessions))
	work := make([]int64, len(sessions))
	errs := make([]error, len(sessions))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				s, q := sessions[i], pool[i]
				want, err := runLocal(q.db, s.spec.inProcess())
				if err != nil {
					errs[i] = err
					continue
				}
				verifyAgainstLocal(h, q.name, s, want)
				stats[i], work[i] = want.stats, want.delayWork
				if i < digestQueries {
					again, err := runLocal(q.db, s.spec.inProcess())
					if err != nil {
						errs[i] = err
						continue
					}
					h.checks.check("counters-repeat", again.stats == want.stats,
						"%s: Workers-1 counters differ between two runs: %+v vs %+v", q.name, want.stats, again.stats)
				}
			}
		}()
	}
	for i, s := range sessions {
		if s != nil {
			idx <- i
		}
	}
	close(idx)
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return 0, "", err
	}
	var maxWork int64
	for _, w := range work {
		maxWork = max(maxWork, w)
	}
	var digest []fd.Stats
	for i := 0; i < len(sessions) && i < digestQueries; i++ {
		if sessions[i] != nil {
			digest = append(digest, stats[i])
		}
	}
	return maxWork, counterDigest(digest), nil
}

// localRun is the in-process reference for one query.
type localRun struct {
	sets  []string
	ranks []float64
	stats fd.Stats
	// delayWork is the largest engine work (JCC checks + list scans +
	// tuples scanned) between consecutive results, from Open on.
	delayWork int64
}

func work(s fd.Stats) int64 { return s.JCCChecks + s.ListScans + s.TuplesScanned }

// runLocal drains q over db with fd.Open in this process.
func runLocal(db *relation.Database, q fd.Query) (*localRun, error) {
	r, err := fd.Open(context.Background(), db, q)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out := &localRun{}
	prev := work(r.Stats())
	for {
		res, ok := r.Next()
		if !ok {
			break
		}
		w := work(r.Stats())
		out.delayWork = max(out.delayWork, w-prev)
		prev = w
		out.sets = append(out.sets, res.Set.Format(db))
		if res.Ranked {
			out.ranks = append(out.ranks, res.Rank)
		}
	}
	if err := r.Err(); err != nil {
		return nil, err
	}
	out.stats = r.Stats()
	return out, nil
}

// verifyAgainstLocal checks a served session against the in-process
// reference: the same multiset of result sets and, for ranked modes,
// a non-increasing rank sequence equal to the reference's prefix.
func verifyAgainstLocal(h *harness, name string, s *session, want *localRun) {
	got, exp := sortedCopy(s.sets), sortedCopy(want.sets)
	h.checks.check("results-equal-local", equalStrings(got, exp),
		"%s %s: served results differ from in-process fd.Open: %s", name, s.spec.Mode, firstDiff(got, exp))
	if !s.spec.ranked() {
		return
	}
	for i := 1; i < len(s.ranks); i++ {
		if !h.checks.check("ranked-non-increasing", s.ranks[i] <= s.ranks[i-1],
			"%s: rank %d (%v) above rank %d (%v)", name, i, s.ranks[i], i-1, s.ranks[i-1]) {
			break
		}
	}
	same := len(s.ranks) == len(want.ranks)
	for i := 0; same && i < len(s.ranks); i++ {
		same = s.ranks[i] == want.ranks[i]
	}
	h.checks.check("ranked-prefix", same,
		"%s: served ranks %v are not the reference ranked order's prefix %v", name, s.ranks, want.ranks)
}

// counterDigest hashes engine counters into a short hex string.
func counterDigest(stats []fd.Stats) string {
	if len(stats) == 0 {
		return ""
	}
	f := fnv.New64a()
	for _, s := range stats {
		fmt.Fprintf(f, "%+v;", s)
	}
	return fmt.Sprintf("%016x", f.Sum64())
}
