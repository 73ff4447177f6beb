package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/relation"
)

// hotJob is one scheduled hot-serve session.
type hotJob struct {
	spec hotSpec
	key  int // index of the spec's warm drain
	due  time.Time
}

// hotServe: an open loop at a fixed session rate over two keep-alive
// connections, drawing sessions Zipf-like from a few popular specs on
// pre-warmed databases, so HTTP rendering and cache replay do the work
// and the engine idles.
func hotServe(h *harness) (*outcome, error) {
	sz := h.cfg.sizes
	o := newOutcome()
	names := make([]string, 0, len(sz.hotDBs))
	for name := range sz.hotDBs {
		names = append(names, name)
	}
	sort.Strings(names)
	dbs := make(map[string]*relation.Database, len(names))
	bodies := make(map[string][]byte, len(names))
	for i, name := range names {
		db, err := sz.hotDBs[name].build(mixSeed(h.cfg.seed, 2, int64(i)))
		if err != nil {
			return nil, err
		}
		if bodies[name], err = encodeDatabase(name, db); err != nil {
			return nil, err
		}
		dbs[name] = db
	}
	specs := append(append([]hotSpec(nil), sz.hotSpecs...), sz.hotFull)
	const conns = 2
	h.prov.Loop, h.prov.RatePerS, h.prov.Connections = "open, fixed rate, Zipf s=1.2 over popular specs", h.cfg.hotRate, conns
	h.prov.ServerFlags = serverFlags
	h.prov.Sizes = describe("popular_specs", fmt.Sprint(len(sz.hotSpecs)), "full_read_every", fmt.Sprint(sz.fullEvery))
	for name, s := range sz.hotDBs {
		h.prov.Sizes[name] = s.String()
	}

	// Set-up uploads the databases and drains every spec once: the
	// cache misses whose lists every later session replays.
	var warm []*session
	srv, err := h.setUp(o, noDataDir, func(s *server) error {
		c := h.newClient(s)
		defer c.close()
		for _, name := range names {
			if err := c.upload(name, bodies[name], fingerprint(dbs[name])); err != nil {
				return err
			}
		}
		warm = warm[:0]
		for _, sp := range specs {
			w := c.drain(querySpec{Database: sp.db, Query: sp.query}, 1024)
			if w.err != nil {
				return w.err
			}
			warm = append(warm, w)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	defer h.stopServer(srv)
	for i, w := range warm {
		ref, err := runLocal(dbs[specs[i].db], w.spec.inProcess())
		if err != nil {
			return nil, err
		}
		verifyAgainstLocal(h, specs[i].db, w, ref)
	}

	clients := []*client{h.newClient(srv), h.newClient(srv)}
	defer func() {
		for _, c := range clients {
			c.close()
		}
	}()
	before, err := clients[0].stats()
	if err != nil {
		return nil, err
	}

	rng := rand.New(rand.NewSource(mixSeed(h.cfg.seed, 3)))
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(sz.hotSpecs)-1))
	interval := time.Duration(float64(time.Second) / h.cfg.hotRate)
	n := int(h.cfg.seconds * h.cfg.hotRate)
	jobs := make([]hotJob, n)
	for i := range jobs {
		key := int(zipf.Uint64())
		if sz.fullEvery > 0 && i%sz.fullEvery == sz.fullEvery-1 {
			key = len(specs) - 1
		}
		jobs[i] = hotJob{spec: specs[key], key: key}
	}

	var (
		mu                      sync.Mutex
		sessionS, firstS, lates []float64
		untraced, traced        []float64
		results, completed      int
		lastClose               time.Time
	)
	acc := newLayerAcc()
	start := time.Now().Add(10 * time.Millisecond)
	tracedFrom := len(jobs)
	if h.cfg.trace {
		tracedFrom = len(jobs) / 2
	}
	// Sessions not started by giveUp are counted as timed out.
	giveUp := start.Add(time.Duration(h.cfg.seconds*float64(time.Second)) + 10*time.Second)
	queue := make(chan int, len(jobs)) // holds every scheduled session
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		c := clients[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				j := jobs[i]
				if time.Now().After(giveUp) {
					h.acct.record("timeout")
					mu.Lock()
					sessionS, firstS = append(sessionS, opTimeout.Seconds()), append(firstS, opTimeout.Seconds())
					mu.Unlock()
					continue
				}
				s := c.runSession(querySpec{Database: j.spec.db, Query: j.spec.query}, j.spec.pageK, j.spec.pageK)
				var td *traceData
				if s.err == nil && i >= tracedFrom {
					var err error
					if td, err = c.trace(s.id); err != nil {
						s.err = err
					}
				}
				ok := s.err == nil
				if ok {
					want := warm[j.key].sets
					h.checks.check("cache-replay", equalStrings(s.sets, want),
						"%s %s: cache replay differs from the first drain: %s", j.spec.db, j.spec.query.Mode,
						firstDiff(s.sets, want))
				} else {
					fmt.Fprintln(h.log, "perfbench: hot session failed:", s.err)
				}
				ss, fs := opTimeout.Seconds(), opTimeout.Seconds()
				if ok {
					ss, fs = s.closed.Sub(j.due).Seconds(), s.first.Sub(j.due).Seconds()
				}
				mu.Lock()
				sessionS, firstS = append(sessionS, ss), append(firstS, fs)
				if ok {
					completed++
					results += len(s.sets)
					if s.closed.After(lastClose) {
						lastClose = s.closed
					}
				}
				if i >= tracedFrom {
					traced = append(traced, ss)
					if td != nil {
						acc.addSession(s, td)
					}
				} else {
					untraced = append(untraced, ss)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range jobs {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		lates = append(lates, time.Since(due).Seconds())
		if i == tracedFrom {
			h.spans.setOn(true)
		}
		jobs[i].due = due
		queue <- i
	}
	close(queue)
	wg.Wait()
	h.spans.setOn(false)
	after, err := clients[0].stats()
	if err != nil {
		return nil, err
	}

	wall := lastClose.Sub(start)
	o.addPct("hot.session_ms_p50", sessionS, 0.5, 1000, "op_ms_p50")
	o.addPct("hot.session_ms_p99", sessionS, 0.99, 1000, "")
	o.addPct("hot.first_page_ms_p50", firstS, 0.5, 1000, "first_ms_p50")
	o.add("hot.results_per_s", "1/s", ratio(float64(results), wall.Seconds()), len(sessionS), "results_per_s", 1)
	o.add("hot.sessions_per_s", "1/s", ratio(float64(completed), wall.Seconds()), completed, "", 0)
	o.addPct("hot.generator_late_ms_p99", lates, 0.99, 1000, "")

	acc.report(o)
	reportCache(o, after.minus(before))
	v, _ := pct(lates, 0.99)
	o.layer("bench.gen_late_ms_p99", v*1000)
	o.layer("bench.trace_overhead_frac", overhead(untraced, traced))
	return o, nil
}
