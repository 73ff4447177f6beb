package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// opTimeout bounds every HTTP call. A failed operation is recorded at
// this latency, so it misses every latency limit instead of vanishing
// from a percentile.
const opTimeout = 60 * time.Second

// harness owns everything one run starts: fdserve subprocesses, their
// scratch directory, the failure accounting, the correctness checks
// and the client spans.
type harness struct {
	cfg    config
	dir    string
	log    io.Writer
	acct   accounting
	checks checker
	spans  spanLog
	prov   provenance

	mu      sync.Mutex
	servers []*server
	cleaned bool
	peakRSS float64 // largest VmHWM seen, MB
}

func newHarness(cfg config, dir string, log io.Writer) *harness {
	h := &harness{cfg: cfg, dir: dir, log: log}
	h.checks.sabotage = cfg.sabotage
	return h
}

// cleanup kills every server still running and removes the scratch
// directory. Idempotent and safe from any goroutine.
func (h *harness) cleanup() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.cleaned {
		return
	}
	h.cleaned = true
	for _, s := range h.servers {
		s.kill()
	}
	if err := os.RemoveAll(h.dir); err != nil {
		fmt.Fprintln(h.log, "perfbench: removing scratch dir:", err)
	}
}

// serverFlags are the fdserve flags every workload runs with; -addr
// and -data are added per start.
var serverFlags = []string{"-log-level", "warn"}

// server is one fdserve subprocess.
type server struct {
	cmd    *exec.Cmd
	base   string
	stderr *tailBuffer
	done   chan struct{}
	once   sync.Once
}

// startServer launches fdserve (on dataDir when non-empty) and waits
// until /healthz answers.
func (h *harness) startServer(dataDir string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := append([]string{"-addr", addr}, serverFlags...)
	if dataDir != "" {
		args = append(args, "-data", dataDir)
	}
	s := &server{base: "http://" + addr, stderr: &tailBuffer{max: 8 << 10}, done: make(chan struct{})}
	s.cmd = exec.Command(h.cfg.fdserve, args...)
	s.cmd.Stdout = s.stderr
	s.cmd.Stderr = s.stderr
	// The server must not outlive the benchmark, even if it is killed.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}

	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		return nil, fmt.Errorf("harness already cleaned up")
	}
	if err := s.cmd.Start(); err != nil {
		h.mu.Unlock()
		return nil, fmt.Errorf("start fdserve: %w", err)
	}
	h.servers = append(h.servers, s)
	h.mu.Unlock()
	go func() {
		_ = s.cmd.Wait() // exit status is irrelevant: the harness kills it
		close(s.done)
	}()

	probe := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-s.done:
			return nil, fmt.Errorf("fdserve exited before ready: %s", s.stderr.String())
		default:
		}
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				probe.CloseIdleConnections()
				return s, nil
			}
		}
		// Refused connects return at once; a short pause keeps the
		// ready time's resolution well below a millisecond.
		time.Sleep(100 * time.Microsecond)
	}
	s.kill()
	return nil, fmt.Errorf("fdserve not ready within 60s: %s", s.stderr.String())
}

// stopServer records the server's peak resident set and kills it.
func (h *harness) stopServer(s *server) {
	if mb, err := s.peakRSSMB(); err == nil {
		h.mu.Lock()
		if mb > h.peakRSS {
			h.peakRSS = mb
		}
		h.mu.Unlock()
	} else {
		fmt.Fprintln(h.log, "perfbench: reading VmHWM:", err)
	}
	s.kill()
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *server) kill() {
	s.once.Do(func() {
		_ = s.cmd.Process.Kill() // already exited is fine
		<-s.done
	})
}

// peakRSSMB reads the process's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("pick port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if over := len(t.buf) - t.max; over > 0 {
		t.buf = t.buf[over:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// --- failure accounting ------------------------------------------------

// accounting is the one place operations are counted: every HTTP call
// of a run is attempted here, and every non-2xx status, transport error
// and timeout is counted failed, by kind.
type accounting struct {
	mu        sync.Mutex
	attempted int64
	failed    int64
	kinds     map[string]int64
}

func (a *accounting) record(kind string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.attempted++
	if kind == "" {
		return
	}
	a.failed++
	if a.kinds == nil {
		a.kinds = make(map[string]int64)
	}
	a.kinds[kind]++
}

func (a *accounting) totals() (attempted, failed int64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.attempted, a.failed
}

func (a *accounting) byKind() map[string]int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]int64, len(a.kinds))
	for k, v := range a.kinds {
		out[k] = v
	}
	return out
}

// failureKind classifies a finished call: "" for success, otherwise
// shed (503), 5xx, 4xx, timeout or transport.
func failureKind(status int, err error) string {
	if err != nil {
		var ne net.Error
		if errors.Is(err, context.DeadlineExceeded) || (errors.As(err, &ne) && ne.Timeout()) {
			return "timeout"
		}
		return "transport"
	}
	switch {
	case status == http.StatusServiceUnavailable:
		return "shed"
	case status >= 500:
		return "5xx"
	case status < 200 || status > 299:
		return "4xx"
	}
	return ""
}

// --- correctness checks ------------------------------------------------

// checker collects failed correctness checks. A failed check does not
// stop the run, but it makes the result incorrect and the exit nonzero.
type checker struct {
	mu       sync.Mutex
	fails    []string
	sabotage string
}

// check records a failure of the named check unless ok holds. It
// returns ok.
func (c *checker) check(name string, ok bool, format string, args ...any) bool {
	if c.sabotage != "" && c.sabotage == name {
		ok, format = false, "sabotaged: "+format
	}
	if !ok {
		c.mu.Lock()
		c.fails = append(c.fails, name+": "+fmt.Sprintf(format, args...))
		c.mu.Unlock()
	}
	return ok
}

func (c *checker) ok() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.fails) == 0
}

func (c *checker) failures() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.fails...)
}

// --- client spans ------------------------------------------------------

// clientSpan is one HTTP call as the client saw it.
type clientSpan struct {
	Name    string `json:"name"`
	Session string `json:"session,omitempty"`
	StartNs int64  `json:"start_unix_nano"`
	DurNs   int64  `json:"duration_nanos"`
	Status  int    `json:"status"`
	Bytes   int    `json:"bytes"`
}

// spanLog keeps the client spans of a traced run in memory.
type spanLog struct {
	mu    sync.Mutex
	on    bool
	spans []clientSpan
}

func (l *spanLog) add(sp clientSpan) {
	l.mu.Lock()
	if l.on {
		l.spans = append(l.spans, sp)
	}
	l.mu.Unlock()
}

// setOn switches recording on for a traced phase, off for an untraced
// one.
func (l *spanLog) setOn(on bool) {
	l.mu.Lock()
	l.on = on
	l.mu.Unlock()
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	raw, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// --- HTTP client -------------------------------------------------------

// client is one keep-alive connection to a server. Each role of a
// workload (the closed-loop client, an open-loop worker, the writer,
// the follower) holds its own, so a run never uses more connections
// than it has roles.
type client struct {
	h    *harness
	base string
	hc   *http.Client
}

func (h *harness) newClient(s *server) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &client{h: h, base: s.base, hc: &http.Client{Transport: tr, Timeout: opTimeout}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call is the outcome of one HTTP operation.
type call struct {
	status int
	body   []byte
	start  time.Time
	end    time.Time
}

func (cl call) dur() time.Duration { return cl.end.Sub(cl.start) }

// do performs one operation, accounts for it, and records its client
// span. A failed operation returns an error; its call still carries the
// start time.
func (c *client) do(method, path string, body []byte, span, session string) (call, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	cl := call{start: time.Now()}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		c.h.acct.record("transport")
		return cl, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err == nil {
		cl.status = resp.StatusCode
		cl.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	cl.end = time.Now()
	kind := failureKind(cl.status, err)
	c.h.acct.record(kind)
	c.h.spans.add(clientSpan{Name: span, Session: session, StartNs: cl.start.UnixNano(),
		DurNs: int64(cl.dur()), Status: cl.status, Bytes: len(cl.body)})
	if kind != "" {
		if err == nil {
			err = fmt.Errorf("%s %s: status %d: %s", method, path, cl.status, bytes.TrimSpace(cl.body))
		}
		return cl, fmt.Errorf("%s (%s): %w", span, kind, err)
	}
	return cl, nil
}

// getJSON fetches path and decodes the body into v.
func (c *client) getJSON(path, span string, v any) error {
	cl, err := c.do(http.MethodGet, path, nil, span, "")
	if err != nil {
		return err
	}
	return json.Unmarshal(cl.body, v)
}

// metrics fetches /metrics as a map from series (name plus label set,
// as printed) to value.
func (c *client) metrics() (map[string]float64, error) {
	cl, err := c.do(http.MethodGet, "/metrics", nil, "metrics", "")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(bytes.NewReader(cl.body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// serviceStats is the subset of GET /stats the benchmark reads.
type serviceStats struct {
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
}

func (c *client) stats() (serviceStats, error) {
	var st serviceStats
	return st, c.getJSON("/stats", "stats", &st)
}
