package bench

import (
	"encoding/json"
	"io"
	"runtime"
	"time"

	fd "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relation"
	"repro/internal/tupleset"
	"repro/internal/workload"
)

// Metric is one measured variant of a trajectory record: wall-clock,
// the algorithm counters of core.Stats, and allocation deltas sampled
// around the run (testing.Benchmark-style, via runtime.MemStats).
type Metric struct {
	Name       string  `json:"name"`
	WallMillis float64 `json:"wall_ms"`
	Results    int     `json:"results"`
	// Workers is the enumeration worker count of the variant: 1 for
	// the sequential driver, the pool size for parallel variants.
	Workers       int    `json:"workers"`
	JCCChecks     int64  `json:"jcc_checks"`
	SigHits       int64  `json:"sig_hits"`
	SigRebuilds   int64  `json:"sig_rebuilds"`
	TuplesScanned int64  `json:"tuples_scanned"`
	TuplesSkipped int64  `json:"tuples_skipped"`
	IndexProbes   int64  `json:"index_probes"`
	ListScans     int64  `json:"list_scans"`
	PageReads     int64  `json:"page_reads"`
	Mallocs       uint64 `json:"mallocs"`
	BytesAlloc    uint64 `json:"bytes_alloc"`
	// DelayMaxMillis and DelayP99Millis summarise the inter-result gaps
	// of the enumerate phase — the measured form of the paper's
	// polynomial-delay guarantee, from the same obs.Delay tracker the
	// service exports as fd_result_delay_seconds.
	DelayMaxMillis float64 `json:"delay_max_ms"`
	DelayP99Millis float64 `json:"delay_p99_ms"`
	// DelayWorkMax is the largest engine work (JCC checks + list scans
	// + tuples scanned) between consecutive results, from cursor
	// construction on: the delay in deterministic work units, recorded
	// on every sequential drain (the E6, E9 and E13 rungs at Workers 1;
	// absent on parallel rungs and E12).
	DelayWorkMax int64 `json:"delay_work_max,omitempty"`
	// Phases breaks WallMillis into the trace-span phases of the run:
	// init (cursor construction), enumerate (the Next loop) and drain
	// (error check, close, canonical sort). Recorded from the same span
	// machinery GET /queries/{id}/trace serves.
	Phases map[string]float64 `json:"phase_ms,omitempty"`
}

// Record is one machine-readable benchmark trajectory: the per-variant
// metrics of one workload, tagged with the Go version so numbers are
// comparable across PRs (the file is committed as BENCH_<workload>.json
// and appended to, diffed or plotted by later sessions).
type Record struct {
	Workload string `json:"workload"`
	Title    string `json:"title"`
	Go       string `json:"go"`
	// GoMaxProcs and NumCPU describe the box the record was measured
	// on, so a flat parallel speedup curve on a single-core machine
	// reads as the hardware's fault, not the executor's.
	GoMaxProcs int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Variants   []Metric `json:"variants"`
}

// newRecord starts the trajectory record of one workload, tagged with
// the Go version and the box it is measured on.
func newRecord(workload, title string) *Record {
	return &Record{Workload: workload, Title: title, Go: runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// statsMetric is the trajectory metric of one measured variant: the
// wall-clock and allocation deltas of measure, its result and worker
// counts, and its engine counters.
func statsMetric(name string, wall time.Duration, mallocs, bytes uint64, results, workers int, s core.Stats) Metric {
	return Metric{
		Name: name, WallMillis: float64(wall.Microseconds()) / 1000, Results: results, Workers: workers,
		JCCChecks: s.JCCChecks, SigHits: s.SigHits, SigRebuilds: s.SigRebuilds,
		TuplesScanned: s.TuplesScanned, TuplesSkipped: s.TuplesSkipped, IndexProbes: s.IndexProbes,
		ListScans: s.ListScans, PageReads: s.PageReads, Mallocs: mallocs, BytesAlloc: bytes,
	}
}

// drained is what one drain measured.
type drained struct {
	sets  []*tupleset.Set
	ranks []float64 // ranked cursors only
	stats core.Stats
	// phases and delays are the trace-span phase times and the
	// inter-result delay profile of the drain.
	phases map[string]float64
	delays obs.DelaySummary
	// delayWork is the largest engine work (core.Stats.Work) between
	// consecutive results, from cursor construction on: the
	// deterministic, work-unit form of the delay. Only sequential
	// drains record it; a parallel cursor's interleaving of tasks is
	// not repeatable.
	delayWork int64
}

// drain runs one counter-gated rung under an execution trace: "init"
// (open), "enumerate" (the Next loop, stopped after k results when
// k > 0, as a K-bounded query stops) and "drain" (error check, close,
// and — for a parallel cursor — the canonical sort that makes its
// deliverable comparable) are recorded as spans, and the per-phase
// times are read back from the snapshot. The phases therefore come
// from the same span machinery a served query's GET
// /queries/{id}/trace uses, not a parallel set of stopwatches. The
// enumerate loop also feeds an obs.Delay tracker and, on a sequential
// cursor, tracks the work-unit delay.
func drain(db *relation.Database, open func() (fd.Results, error), k int, sequential bool) (drained, error) {
	var run drained
	tr := obs.NewTrace("drain", nil)
	root := tr.Root()
	sp := root.Start("init")
	c, err := open()
	sp.End()
	if err != nil {
		return run, err
	}
	delay := obs.NewDelay(0)
	sp = root.Start("enumerate")
	last := time.Now()
	prevWork := c.Stats().Work()
	for k == 0 || len(run.sets) < k {
		r, ok := c.Next()
		if !ok {
			break
		}
		now := time.Now()
		delay.Observe(now.Sub(last))
		last = now
		if sequential {
			w := c.Stats().Work()
			run.delayWork = max(run.delayWork, w-prevWork)
			prevWork = w
		}
		run.sets = append(run.sets, r.Set)
		if r.Ranked {
			run.ranks = append(run.ranks, r.Rank)
		}
	}
	sp.End()
	sp = root.Start("drain")
	err = c.Err()
	run.stats = c.Stats()
	c.Close()
	if err == nil && !sequential {
		tupleset.SortSets(db, run.sets)
	}
	sp.End()
	root.End()
	if err != nil {
		return run, err
	}
	run.phases, run.delays = phaseMillis(tr.Snapshot()), delay.Snapshot()
	return run, nil
}

// phaseMillis folds the trace's phase spans into name → milliseconds.
func phaseMillis(d *obs.TraceData) map[string]float64 {
	out := make(map[string]float64, 3)
	for _, name := range []string{"init", "enumerate", "drain"} {
		for _, sp := range d.FindAll(name) {
			out[name] += float64(sp.DurationNanos) / 1e6
		}
	}
	return out
}

// metric is the trajectory metric of one measured drain on workers
// workers: statsMetric plus the drain's delay profile and phases.
func (run drained) metric(name string, wall time.Duration, mallocs, bytes uint64, workers int) Metric {
	m := statsMetric(name, wall, mallocs, bytes, len(run.sets), workers, run.stats)
	m.DelayMaxMillis, m.DelayP99Millis, m.DelayWorkMax = run.delays.MaxMillis, run.delays.P99Millis, run.delayWork
	m.Phases = run.phases
	return m
}

// WriteRecords writes records as an indented JSON document
// {"records": [...]}.
func WriteRecords(w io.Writer, records []*Record) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Records []*Record `json:"records"`
	}{records})
}

// measure runs fn once and captures wall-clock plus allocation deltas.
func measure(fn func()) (time.Duration, uint64, uint64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	return wall, after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// e9DB builds the chain workload of E9Ablations and E12Append.
func e9DB() (*relation.Database, error) {
	return workload.Chain(workload.Config{
		Relations: 4, TuplesPerRelation: 28, Domain: 4, NullRate: 0.1, Seed: 23})
}

// e9Variant is one rung of the E9 ablation ladder. A variant with
// workers > 1 runs the parallel streaming executor (restart strategy)
// with that pool size instead of the sequential driver.
type e9Variant struct {
	name    string
	opts    core.Options
	workers int
}

// e9Variants returns the §7 ablation ladder in presentation order,
// ending with the parallel speedup curve of the streaming executor.
func e9Variants() []e9Variant {
	parallel := core.Options{UseIndex: true, UseJoinIndex: true}
	return []e9Variant{
		{name: "tuple-at-a-time, no index, restart init", opts: core.Options{}},
		{name: "+ hash index", opts: core.Options{UseIndex: true}},
		{name: "+ join-candidate index (dictionary codes)", opts: core.Options{UseIndex: true, UseJoinIndex: true}},
		{name: "+ seeded init (§7 opt 2)", opts: core.Options{UseIndex: true, UseJoinIndex: true, Strategy: core.InitSeeded}},
		{name: "+ projected init (§7 opt 3)", opts: core.Options{UseIndex: true, UseJoinIndex: true, Strategy: core.InitProjected}},
		{name: "+ blocks of 8", opts: core.Options{UseIndex: true, UseJoinIndex: true, Strategy: core.InitSeeded, BlockSize: 8}},
		{name: "+ blocks of 64", opts: core.Options{UseIndex: true, UseJoinIndex: true, Strategy: core.InitSeeded, BlockSize: 64}},
		{name: "parallel ×2 (restart init, streaming executor)", opts: parallel, workers: 2},
		{name: "parallel ×4 (restart init, streaming executor)", opts: parallel, workers: 4},
		{name: "parallel ×8 (restart init, streaming executor)", opts: parallel, workers: 8},
	}
}
