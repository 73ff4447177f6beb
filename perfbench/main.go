// Command perfbench is the repository's end-to-end benchmark. It drives
// a freshly built fdserve subprocess on loopback from one client
// process over one of three workloads, checks every output it receives
// against an in-process recomputation, and prints the metrics as one
// JSON object on the last line of standard output.
//
// Run it through run.sh from the repository root, which builds both
// binaries first:
//
//	bash perfbench/run.sh --workload hot-serve --seed 3 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with
// --trace 1 it carries the per-layer metrics of a traced run. The
// metric catalogue and its mapping onto the workloads is in METRICS.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	fdserve  string
	workdir  string
	sizes    sizes
	// hotRate is hot-serve's open-loop session rate (sessions/s).
	hotRate float64
	// setups is how many times the server is set up per run (3; the
	// self-test uses fewer); setup_s reports the median.
	setups int
	// spansOut, when set, receives the client spans of a traced run.
	spansOut string
	// sabotage names a correctness check to fail on purpose; the
	// self-test uses it to prove cleanup runs on a failing check.
	sabotage string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{sizes: fullSizes, setups: 3}
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: cold-drain, hot-serve or append-recover")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	fs.StringVar(&cfg.fdserve, "fdserve", "", "path of the fdserve binary under test")
	fs.StringVar(&cfg.workdir, "workdir", "", "directory for the run's scratch files (data dirs)")
	fs.Float64Var(&cfg.hotRate, "hot-rate", defaultHotRate,
		"hot-serve open-loop session rate (sessions/s); set it far above capacity to measure capacity as hot.sessions_per_s")
	fs.StringVar(&cfg.spansOut, "spans", "", "write the client spans of a traced run to this JSON file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	if err := cfg.validate(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}

	res, err := execute(cfg, stdout, stderr)
	if res != nil {
		enc, _ := json.Marshal(res)
		fmt.Fprintln(stdout, string(enc))
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func (c *config) validate() error {
	if _, ok := workloads[c.workload]; !ok {
		return fmt.Errorf("unknown workload %q (cold-drain, hot-serve, append-recover)", c.workload)
	}
	if c.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if c.fdserve == "" || c.workdir == "" {
		return fmt.Errorf("--fdserve and --workdir are required (run through run.sh)")
	}
	if c.hotRate <= 0 {
		return fmt.Errorf("--hot-rate must be positive")
	}
	return nil
}

// result is the last line of standard output.
type result struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errCheck marks a failed correctness check: the run still prints its
// result (with correct=false) and exits nonzero.
var errCheck = errors.New("correctness check failed")

// execute runs one workload inside its own scratch directory and turns
// the outcome into the result line. Every server it started is killed
// and the scratch directory removed before it returns, whatever the
// outcome; SIGINT and SIGTERM take the same path.
func execute(cfg config, stdout, stderr io.Writer) (*result, error) {
	dir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	h := newHarness(cfg, dir, stderr)
	defer h.cleanup()

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigs)
	stopSig := make(chan struct{})
	defer close(stopSig)
	go func() {
		select {
		case s := <-sigs:
			h.cleanup()
			fmt.Fprintln(stderr, "perfbench: interrupted by", s)
			os.Exit(1)
		case <-stopSig:
		}
	}()

	fmt.Fprintf(stdout, "# perfbench workload=%s seed=%d seconds=%g trace=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace)
	out, runErr := workloads[cfg.workload](h)
	prov := h.provenance()
	if enc, err := json.Marshal(prov); err == nil {
		fmt.Fprintf(stdout, "# provenance %s\n", enc)
	}
	for _, f := range h.checks.failures() {
		fmt.Fprintln(stdout, "# CHECK FAILED:", f)
	}
	if out == nil {
		return nil, runErr
	}
	if cfg.spansOut != "" && cfg.trace {
		if err := h.spans.writeFile(filepath.Clean(cfg.spansOut)); err != nil {
			fmt.Fprintln(stderr, "perfbench: writing spans:", err)
		}
	}

	attempted, failed := h.acct.totals()
	out.finish(h, attempted, failed)
	out.print(stdout, cfg.trace)
	res := &result{
		Correct:   runErr == nil && h.checks.ok(),
		Attempted: attempted,
		Failed:    failed,
		Metrics:   out.jsonMetrics(cfg.trace),
	}
	if runErr == nil && !h.checks.ok() {
		runErr = errCheck
	}
	return res, runErr
}

// provenance is recorded with every run so a number can be traced back
// to the inputs and the box that produced it.
type provenance struct {
	Workload    string            `json:"workload"`
	Seed        int64             `json:"seed"`
	Seconds     float64           `json:"seconds"`
	Trace       bool              `json:"trace"`
	Loop        string            `json:"loop"`
	RatePerS    float64           `json:"rate_per_s,omitempty"`
	Connections int               `json:"connections"`
	Sizes       map[string]string `json:"sizes"`
	ServerFlags []string          `json:"fdserve_flags"`
	GoMaxProcs  int               `json:"gomaxprocs"`
	NumCPU      int               `json:"num_cpu"`
	GoVersion   string            `json:"go_version"`
	// CounterDigest hashes the Workers-1 engine counters of the first
	// cold-drain queries; two runs with one seed must print the same.
	CounterDigest string `json:"counter_digest,omitempty"`
}

func (h *harness) provenance() provenance {
	p := h.prov
	p.Workload, p.Seed, p.Seconds, p.Trace = h.cfg.workload, h.cfg.seed, h.cfg.seconds, h.cfg.trace
	p.GoMaxProcs, p.NumCPU, p.GoVersion = runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version()
	return p
}
