package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/relation"
	"repro/internal/store"
	"repro/internal/tupleset"
)

// appendDB is the append-recover database's name; the store keeps it as
// appendDB+".fdb" (snapshot) and appendDB+".fdlog" (row log).
const appendDB = "app"

// batch is one append: rows for one relation, with its request body.
type batch struct {
	rel    int
	name   string
	tuples []relation.Tuple
	body   []byte
}

// planBatches cuts the donor into batches of n rows that rotate over the
// relations, relabelled so their labels never collide with the base's.
func planBatches(donor *relation.Database, n int) ([]batch, error) {
	used := make([]int, donor.NumRelations())
	var out []batch
	for i := 0; ; i++ {
		rel := i % donor.NumRelations()
		src := donor.Relation(rel)
		if used[rel]+n > src.Len() {
			return out, nil
		}
		b := batch{rel: rel, name: src.Name()}
		for j := 0; j < n; j++ {
			t := *src.Tuple(used[rel])
			t.Label = fmt.Sprintf("%s_a%d", src.Name(), used[rel])
			b.tuples = append(b.tuples, t)
			used[rel]++
		}
		body, err := json.Marshal(struct {
			Relation   string      `json:"relation"`
			Attributes []string    `json:"attributes"`
			Tuples     []tupleJSON `json:"tuples"`
		}{b.name, attrNames(src), encodeTuples(b.tuples)})
		if err != nil {
			return nil, err
		}
		b.body = body
		out = append(out, b)
	}
}

// appendRecover: one closed-loop writer appends small batches while a
// follower streams the deltas of the full query; every round ends with
// a SIGKILL, a restart on the same data directory, and re-drains.
func appendRecover(h *harness) (*outcome, error) {
	sz := h.cfg.sizes
	base, err := sz.appendBase.build(mixSeed(h.cfg.seed, 4))
	if err != nil {
		return nil, err
	}
	donorShape := sz.appendBase
	donorShape.Tuples = (sz.appendBase.Tuples + 2) / 3
	donor, err := donorShape.build(mixSeed(h.cfg.seed, 5))
	if err != nil {
		return nil, err
	}
	batches, err := planBatches(donor, sz.appendBatch)
	if err != nil {
		return nil, err
	}
	baseBody, err := encodeDatabase(appendDB, base)
	if err != nil {
		return nil, err
	}
	a := &appendRun{h: h, o: newOutcome(), acc: newLayerAcc(), batches: batches,
		full: querySpec{Database: appendDB, Query: exactQ()}, local: base, userBytes: len(baseBody)}
	h.prov.Loop, h.prov.Connections = "closed writer + 1 follower", 2
	h.prov.ServerFlags = append(append([]string(nil), serverFlags...), "-data", "<scratch dir>")
	h.prov.Sizes = describe("base", sz.appendBase.String(), "donor_batches", fmt.Sprint(len(batches)),
		"batch_rows", fmt.Sprint(sz.appendBatch), "rounds", fmt.Sprint(sz.appendRounds),
		"reopen_every", fmt.Sprint(sz.reopenEvery))

	baseFP := fingerprint(base)
	a.srv, err = h.setUp(a.o, func(i int) string {
		a.dataDir = filepath.Join(h.dir, fmt.Sprintf("data%d", i))
		return a.dataDir
	}, func(s *server) error {
		c := h.newClient(s)
		defer c.close()
		if err := c.upload(appendDB, baseBody, baseFP); err != nil {
			return err
		}
		return c.drain(a.full, 1024).err
	})
	if err != nil {
		return nil, err
	}
	defer func() { h.stopServer(a.srv) }()

	perRound := (len(batches) + sz.appendRounds - 1) / sz.appendRounds
	roundDur := time.Duration(h.cfg.seconds / float64(sz.appendRounds) * float64(time.Second))
	for r := 0; r < sz.appendRounds; r++ {
		if err := a.round(r, min(len(batches), (r+1)*perRound), roundDur); err != nil {
			return nil, err
		}
	}
	h.spans.setOn(false)
	h.checks.check("append-batches", len(a.ackS) >= 1, "no append was made")

	o := a.o
	o.addPct("append.ack_ms_p50", a.ackS, 0.5, 1000, "op_ms_p50")
	o.addPct("append.ack_ms_p90", a.ackS, 0.9, 1000, "")
	o.addPct("append.follow_lag_ms_p50", a.lagS, 0.5, 1000, "first_ms_p50")
	o.add("append.rows_per_s", "1/s", ratio(float64(a.rows), a.writeWall.Seconds()), len(a.ackS), "results_per_s", 1)
	o.addPct("append.recover_s", a.recoverS, 0.5, 1, "")
	o.addPct("append.reopen_ms_p50", a.reopenS, 0.5, 1000, "")
	o.add("append.growth_frac", "fraction", float64(a.rows)/float64(base.NumTuples()), a.rows, "", 0)

	a.acc.report(o)
	reportCache(o, a.cache)
	o.layer("service.append_ms_p50", median(a.appendSvc))
	o.layer("service.cache_patches", a.patches)
	o.layer("fdserve.append_self_ms_p50", median(a.appendSelf))
	o.layer("fdserve.follow_fanout_ms_p50", median(a.fanout))
	o.layer("store.append_ms_p50", median(a.storeAppend))
	o.layer("store.load_ms", median(a.loadMs))
	o.layer("store.save_ms", median(a.saveMs))
	o.layer("store.log_bytes_per_user_byte", median(a.logRatio))
	o.layer("store.snapshot_bytes_per_user_byte", median(a.snapRatio))
	o.layer("bench.trace_overhead_frac", overhead(a.untraced, a.traced))
	if h.cfg.trace {
		if err := replayAppends(h, o, base, batches, a.sentByRound); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// appendRun is one append-recover run: the server, the client-side
// mirror of the database, and what the rounds measured.
type appendRun struct {
	h         *harness
	o         *outcome
	acc       *layerAcc
	batches   []batch
	full      querySpec
	srv       *server
	dataDir   string
	local     *relation.Database // the client's Extend mirror
	next      int                // next batch to send
	userBytes int                // uploaded row bytes so far
	isTraced  bool               // the current round is traced

	ackS, lagS, fanout, reopenS, recoverS []float64
	untraced, traced                      []float64
	appendSvc, storeAppend, appendSelf    []float64
	loadMs, saveMs, logRatio, snapRatio   []float64
	patches                               float64
	cache                                 serviceStats
	rows                                  int
	writeWall                             time.Duration
	sentByRound                           [][]int
}

// round runs one round: the follower goes live, the writer appends
// batches up to stop (or for d), the follower is checked against a
// fresh drain, and the server is killed and restarted.
func (a *appendRun) round(r, stop int, d time.Duration) error {
	h := a.h
	a.isTraced = h.cfg.trace && r%2 == 1
	h.spans.setOn(a.isTraced)
	wc, fc := h.newClient(a.srv), h.newClient(a.srv)
	defer wc.close()
	defer fc.close()
	m0, err := wc.metrics()
	if err != nil {
		return err
	}
	st0, err := wc.stats()
	if err != nil {
		return err
	}
	follow := a.full
	follow.Follow = true
	f, err := startFollower(fc, follow)
	if err != nil {
		return err
	}
	if err := f.waitLive(opTimeout); err != nil {
		return err
	}

	w, err := a.write(wc, m0, stop, d)
	if err != nil {
		return err
	}
	a.sentByRound = append(a.sentByRound, w.sent)

	// The follower must see every append, then hold exactly what a
	// fresh full drain returns.
	delivered := f.waitAppends(len(w.sent), opTimeout)
	h.checks.check("follow-deltas", delivered,
		"round %d: follower saw %d of %d appends", r, f.appendsSeen(), len(w.sent))
	fresh := wc.drain(a.full, 1024)
	if fresh.err != nil {
		return fmt.Errorf("round %d fresh drain: %w", r, fresh.err)
	}
	if err := a.traceInto(wc, fresh); err != nil {
		return err
	}
	got, want := sortedCopy(f.liveSets()), sortedCopy(fresh.sets)
	h.checks.check("follow-total", equalStrings(got, want),
		"round %d: follower's result set differs from a fresh full drain: %s", r, firstDiff(got, want))
	for seq := 1; seq <= len(w.sent); seq++ {
		at, ok := f.deltaAt(seq)
		if !ok {
			a.lagS = append(a.lagS, opTimeout.Seconds())
			continue
		}
		a.lagS = append(a.lagS, at.Sub(w.sendAt[seq]).Seconds())
		if a.isTraced {
			a.fanout = append(a.fanout, 1000*at.Sub(w.ackAt[seq]).Seconds())
		}
	}
	if _, err := wc.do(http.MethodDelete, "/queries/"+f.id, nil, "delete", f.id); err != nil {
		return err
	}
	endTotal, err := f.wait(opTimeout)
	if err != nil {
		return err
	}
	h.checks.check("follow-end", endTotal == len(fresh.sets),
		"round %d: follow stream ended with total %d, fresh drain has %d", r, endTotal, len(fresh.sets))

	fps, err := wc.listFingerprints()
	if err != nil {
		return err
	}
	preFP := fps[appendDB]
	h.checks.check("append-fingerprint", preFP == fingerprint(a.local),
		"round %d: server fingerprint %s, local mirror %s", r, preFP, fingerprint(a.local))
	m1, err := wc.metrics()
	if err != nil {
		return err
	}
	a.patches += m1["fd_cache_patches_total"] - m0["fd_cache_patches_total"]
	st1, err := wc.stats()
	if err != nil {
		return err
	}
	a.cache.add(st1.minus(st0))
	if st, err := os.Stat(filepath.Join(a.dataDir, appendDB+".fdlog")); err == nil && w.logBytes > 0 {
		a.logRatio = append(a.logRatio, ratio(float64(st.Size()), float64(w.logBytes)))
	}
	return a.restart(r, preFP, want)
}

// written is what one round's writer sent: the batch indices, and per
// acknowledged append (numbered from 1, as the follower's delta events
// are) when it was sent and acknowledged.
type written struct {
	sent          []int
	sendAt, ackAt map[int]time.Time
	logBytes      int
}

// write is the closed-loop writer of one round.
func (a *appendRun) write(wc *client, prevM map[string]float64, stop int, d time.Duration) (written, error) {
	h, sz := a.h, a.h.cfg.sizes
	w := written{sendAt: map[int]time.Time{}, ackAt: map[int]time.Time{}}
	start := time.Now()
	defer func() { a.writeWall += time.Since(start) }()
	for a.next < stop && time.Since(start) < d {
		b := a.batches[a.next]
		a.next++
		cl, err := wc.do(http.MethodPost, "/databases/"+appendDB+"/rows", b.body, "append", "")
		if err != nil {
			fmt.Fprintln(h.log, "perfbench: append failed:", err)
			a.ackS = append(a.ackS, opTimeout.Seconds())
			continue
		}
		ext, err := a.local.Extend(b.rel, b.tuples)
		if err != nil {
			return w, err
		}
		a.local = ext
		w.sent = append(w.sent, a.next-1)
		seq := len(w.sent)
		w.sendAt[seq], w.ackAt[seq] = cl.start, cl.end
		ack := cl.dur().Seconds()
		a.ackS = append(a.ackS, ack)
		a.rows += len(b.tuples)
		a.userBytes += len(b.body)
		w.logBytes += len(b.body)
		if a.isTraced {
			a.traced = append(a.traced, ack)
			m, err := wc.metrics()
			if err != nil {
				return w, err
			}
			const storeAppend = `fd_store_op_seconds_sum{op="append"}`
			svc := 1000 * (m["fd_append_seconds_sum"] - prevM["fd_append_seconds_sum"])
			a.appendSvc = append(a.appendSvc, svc)
			a.storeAppend = append(a.storeAppend, 1000*(m[storeAppend]-prevM[storeAppend]))
			a.appendSelf = append(a.appendSelf, 1000*ack-svc)
			prevM = m
		} else {
			a.untraced = append(a.untraced, ack)
		}
		if seq%sz.reopenEvery == 0 {
			s := wc.drain(a.full, 1024)
			if s.err != nil {
				fmt.Fprintln(h.log, "perfbench: re-open failed:", s.err)
				a.reopenS = append(a.reopenS, opTimeout.Seconds())
				continue
			}
			a.reopenS = append(a.reopenS, s.last.Sub(s.create.start).Seconds())
			if err := a.traceInto(wc, s); err != nil {
				return w, err
			}
		}
	}
	return w, nil
}

// restart SIGKILLs the server, restarts it on the same directory, times
// restart → ready with the pre-kill fingerprint listed, and re-drains.
func (a *appendRun) restart(r int, preFP string, want []string) error {
	h := a.h
	h.stopServer(a.srv)
	t0 := time.Now()
	s, err := h.startServer(a.dataDir)
	if err != nil {
		return err
	}
	a.srv = s
	rc := h.newClient(s)
	defer rc.close()
	fps, err := rc.listFingerprints()
	if err != nil {
		return err
	}
	a.recoverS = append(a.recoverS, time.Since(t0).Seconds())
	h.checks.check("restart-fingerprint", fps[appendDB] == preFP,
		"round %d: fingerprint after restart %s, before %s", r, fps[appendDB], preFP)
	m, err := rc.metrics()
	if err != nil {
		return err
	}
	if n := m[`fd_store_op_seconds_count{op="load"}`]; n > 0 {
		a.loadMs = append(a.loadMs, 1000*m[`fd_store_op_seconds_sum{op="load"}`]/n)
	}
	if n := m[`fd_store_op_seconds_count{op="save"}`]; n > 0 {
		a.saveMs = append(a.saveMs, 1000*m[`fd_store_op_seconds_sum{op="save"}`]/n)
	}
	if st, err := os.Stat(filepath.Join(a.dataDir, appendDB+".fdb")); err == nil {
		a.snapRatio = append(a.snapRatio, ratio(float64(st.Size()), float64(a.userBytes)))
	}
	post := rc.drain(a.full, 1024)
	if post.err != nil {
		return fmt.Errorf("round %d drain after restart: %w", r, post.err)
	}
	got := sortedCopy(post.sets)
	h.checks.check("restart-drain", equalStrings(got, want),
		"round %d: drain after restart differs from the pre-kill drain: %s", r, firstDiff(got, want))
	return a.traceInto(rc, post)
}

// traceInto folds a finished session's trace into the layer metrics
// when the round is traced.
func (a *appendRun) traceInto(c *client, s *session) error {
	if !a.isTraced {
		return nil
	}
	td, err := c.trace(s.id)
	if err != nil {
		return err
	}
	a.acc.addSession(s, td)
	return nil
}

// replayAppends repeats the run's append and recovery sequence in
// process, timing the public calls the server has no span for:
// Database.Extend, delta.Exact, Store.Compact and ReadSnapshot.
func replayAppends(h *harness, o *outcome, base *relation.Database, batches []batch, rounds [][]int) error {
	st, err := store.Open(filepath.Join(h.dir, "replay"))
	if err != nil {
		return err
	}
	if err := st.Save(appendDB, base); err != nil {
		return err
	}
	opts := core.Options{UseIndex: true, UseJoinIndex: true}
	var extendMs, deltaMs, compactMs, readMs []float64
	added := 0
	db, snapFP := base, base.Fingerprint()
	for _, sent := range rounds {
		for _, i := range sent {
			b := batches[i]
			firstNew := db.Relation(b.rel).Len()
			t0 := time.Now()
			ext, err := db.Extend(b.rel, b.tuples)
			if err != nil {
				return err
			}
			t1 := time.Now()
			d, err := delta.Exact(tupleset.NewUniverse(ext), b.rel, firstNew, opts)
			if err != nil {
				return err
			}
			extendMs = append(extendMs, 1000*t1.Sub(t0).Seconds())
			deltaMs = append(deltaMs, 1000*time.Since(t1).Seconds())
			added += len(d.Added)
			if err := st.Append(appendDB, b.name, b.tuples, snapFP); err != nil {
				return err
			}
			db = ext
		}
		t0 := time.Now()
		if _, err := st.Compact(appendDB); err != nil {
			return err
		}
		compactMs = append(compactMs, 1000*time.Since(t0).Seconds())
		snapFP = db.Fingerprint()

		f, err := os.Open(filepath.Join(st.Dir(), appendDB+".fdb"))
		if err != nil {
			return err
		}
		t0 = time.Now()
		loaded, err := relation.ReadSnapshot(bufio.NewReader(f))
		readMs = append(readMs, 1000*time.Since(t0).Seconds())
		f.Close()
		if err != nil {
			return err
		}
		h.checks.check("replay-fingerprint", loaded.Fingerprint() == snapFP,
			"in-process replay: snapshot %016x, extended database %016x", loaded.Fingerprint(), snapFP)
	}
	n := 0
	for _, sent := range rounds {
		n += len(sent)
	}
	o.layer("relation.extend_ms_p50", median(extendMs))
	o.layer("delta.exact_ms_p50", median(deltaMs))
	o.layer("delta.results_per_append", ratio(float64(added), float64(n)))
	o.layer("store.compact_ms", median(compactMs))
	o.layer("relation.read_snapshot_ms", median(readMs))
	return nil
}

// --- follower ----------------------------------------------------------

// follower consumes one NDJSON follow stream on its own connection.
type follower struct {
	id       string
	cancel   context.CancelFunc
	live     chan struct{} // closed on the "live" event
	done     chan struct{} // closed when the stream ends
	progress chan struct{} // pinged on every delta event

	mu       sync.Mutex
	sets     map[string]int
	appends  int
	deltas   map[int]time.Time
	endTotal int
	err      error
}

type followEvent struct {
	Event   string      `json:"event"`
	Result  *resultJSON `json:"result"`
	Set     string      `json:"set"`
	Appends int         `json:"appends"`
	Total   int         `json:"total"`
	Error   string      `json:"error"`
}

// startFollower opens a follow session and starts reading its stream.
func startFollower(c *client, spec querySpec) (*follower, error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	cl, err := c.do(http.MethodPost, "/queries", body, "create", "")
	if err != nil {
		return nil, err
	}
	var created struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(cl.body, &created); err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	f := &follower{id: created.ID, cancel: cancel, live: make(chan struct{}), done: make(chan struct{}),
		progress: make(chan struct{}, 1), sets: make(map[string]int), deltas: make(map[int]time.Time)}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/queries/"+f.id+"/follow", nil)
	if err != nil {
		cancel()
		return nil, err
	}
	// The stream outlives opTimeout's whole-response bound, so it runs
	// on the connection's transport without the client timeout.
	stream := &http.Client{Transport: c.hc.Transport}
	start := time.Now()
	resp, err := stream.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
	}
	kind := failureKind(status, err)
	c.h.acct.record(kind)
	c.h.spans.add(clientSpan{Name: "follow", Session: f.id, StartNs: start.UnixNano(),
		DurNs: int64(time.Since(start)), Status: status})
	if kind != "" {
		cancel()
		if err == nil {
			resp.Body.Close()
			err = fmt.Errorf("follow %s: status %d", f.id, status)
		}
		return nil, err
	}
	go f.read(resp)
	return f, nil
}

func (f *follower) read(resp *http.Response) {
	defer close(f.done)
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		var ev followEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			f.fail(fmt.Errorf("follow event %q: %w", sc.Text(), err))
			return
		}
		now := time.Now()
		f.mu.Lock()
		switch ev.Event {
		case "result":
			if ev.Result != nil {
				f.sets[ev.Result.Set]++
			}
		case "retract":
			if f.sets[ev.Set]--; f.sets[ev.Set] <= 0 {
				delete(f.sets, ev.Set)
			}
		case "live":
			close(f.live)
		case "delta":
			f.appends = ev.Appends
			f.deltas[ev.Appends] = now
		case "end":
			f.endTotal = ev.Total
		case "error":
			f.err = fmt.Errorf("follow stream: %s", ev.Error)
		}
		f.mu.Unlock()
		if ev.Event == "delta" {
			select {
			case f.progress <- struct{}{}:
			default:
			}
		}
		if ev.Event == "end" {
			return
		}
	}
	if err := sc.Err(); err != nil {
		f.fail(err)
	}
}

func (f *follower) fail(err error) {
	f.mu.Lock()
	if f.err == nil {
		f.err = err
	}
	f.mu.Unlock()
}

func (f *follower) waitLive(d time.Duration) error {
	select {
	case <-f.live:
		return nil
	case <-f.done:
		return fmt.Errorf("follow stream %s ended before going live: %v", f.id, f.errValue())
	case <-time.After(d):
		f.cancel()
		return fmt.Errorf("follow stream %s not live within %v", f.id, d)
	}
}

// waitAppends waits until the follower has seen n delta events.
func (f *follower) waitAppends(n int, d time.Duration) bool {
	timeout := time.After(d)
	for f.appendsSeen() < n {
		select {
		case <-f.progress:
		case <-f.done:
			return f.appendsSeen() >= n
		case <-timeout:
			return false
		}
	}
	return true
}

// wait waits for the stream to end and returns its final total.
func (f *follower) wait(d time.Duration) (int, error) {
	select {
	case <-f.done:
	case <-time.After(d):
		f.cancel()
		<-f.done
		return 0, fmt.Errorf("follow stream %s did not end within %v", f.id, d)
	}
	f.cancel()
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.endTotal, f.err
}

func (f *follower) appendsSeen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appends
}

func (f *follower) deltaAt(seq int) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	t, ok := f.deltas[seq]
	return t, ok
}

func (f *follower) liveSets() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []string
	for s, n := range f.sets {
		for i := 0; i < n; i++ {
			out = append(out, s)
		}
	}
	return out
}

func (f *follower) errValue() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.err
}
