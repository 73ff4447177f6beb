package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct{ name, unit string }

// endToEnd are the gated metrics every workload reports with --trace 0.
// Each workload fills every slot from its own named metric; the mapping
// is in METRICS.md and printed with every run. The tail percentiles and
// the restart time are printed but not gated: on a shared 2-CPU box
// their run-to-run spread exceeds the largest bound a gate may have
// (see METRICS.md).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ok_frac", "fraction"},
	{"server_peak_rss_mb", "MB"},
	{"op_ms_p50", "ms"},
	{"first_ms_p50", "ms"},
	{"results_per_s", "1/s"},
}

// perLayer are the metrics of a traced run. Every workload reports all
// of them; a layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fdserve.create_self_ms_p50", "ms"},
	{"fdserve.next_self_ms_p50", "ms"},
	{"fdserve.next_self_ms_p99", "ms"},
	{"fdserve.append_self_ms_p50", "ms"},
	{"fdserve.bytes_per_result", "B"},
	{"fdserve.follow_fanout_ms_p50", "ms"},
	{"service.validate_ms_p50", "ms"},
	{"service.cache_ms_p50", "ms"},
	{"service.admission_wait_ms_p99", "ms"},
	{"service.open_ms_p50", "ms"},
	{"service.next_ms_p50", "ms"},
	{"service.close_ms_p50", "ms"},
	{"service.cache_hit_ratio", "fraction"},
	{"service.cache_evictions", "count"},
	{"service.append_ms_p50", "ms"},
	{"service.cache_patches", "count"},
	{"core.results", "count"},
	{"core.jcc_checks", "count"},
	{"core.list_scans", "count"},
	{"core.tuples_scanned", "count"},
	{"core.sig_hits", "count"},
	{"core.index_probes", "count"},
	{"core.jcc_per_result", "ratio"},
	{"core.sig_hit_ratio", "fraction"},
	{"core.tasks", "count"},
	{"core.task_ms_sum", "ms"},
	{"core.parallel_eff", "fraction"},
	{"core.delay_work_max", "count"},
	{"rank.open_ms_p50", "ms"},
	{"store.append_ms_p50", "ms"},
	{"store.save_ms", "ms"},
	{"store.load_ms", "ms"},
	{"store.compact_ms", "ms"},
	{"store.log_bytes_per_user_byte", "ratio"},
	{"store.snapshot_bytes_per_user_byte", "ratio"},
	{"relation.extend_ms_p50", "ms"},
	{"relation.read_snapshot_ms", "ms"},
	{"delta.exact_ms_p50", "ms"},
	{"delta.results_per_append", "count"},
	{"bench.gen_late_ms_p99", "ms"},
	{"bench.trace_overhead_frac", "fraction"},
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	panic("perfbench: metric " + name + " is not in the catalogue")
}

// named is one of a workload's own end-to-end metrics,
// such as cold.query_s_p50, with its sample count and the gated slot it
// fills (scaled by factor into the slot's unit).
type named struct {
	name   string
	unit   string
	value  float64
	n      int
	note   string
	slot   string
	factor float64
}

// outcome collects what one workload measured.
type outcome struct {
	named  []named
	layers map[string]float64
	// setups are the set-up times of the run (seconds).
	setups []float64
}

func newOutcome() *outcome {
	o := &outcome{layers: make(map[string]float64, len(perLayer))}
	for _, d := range perLayer {
		o.layers[d.name] = 0
	}
	return o
}

// add records a named end-to-end metric; slot may be empty.
func (o *outcome) add(name, unit string, v float64, n int, slot string, factor float64) {
	o.named = append(o.named, named{name: name, unit: unit, value: v, n: n, slot: slot, factor: factor})
}

// addPct records percentile p of xs (seconds) as a named metric in
// unit scale (1 for s, 1000 for ms), noting how many samples lie
// beyond it.
func (o *outcome) addPct(name string, xs []float64, p float64, scale float64, slot string) {
	v, beyond := pct(xs, p)
	unit := "s"
	if scale == 1000 {
		unit = "ms"
	}
	o.named = append(o.named, named{name: name, unit: unit, value: v * scale, n: len(xs),
		note: fmt.Sprintf("p%g, %d beyond", p*100, beyond), slot: slot, factor: 1000 / scale})
}

// layer sets one per-layer metric.
func (o *outcome) layer(name string, v float64) {
	unitOf(perLayer, name) // must be catalogued
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.layers[name] = v
}

// finish adds the metrics every workload shares.
func (o *outcome) finish(h *harness, attempted, failed int64) {
	o.add("setup_s", "s", median(o.setups), len(o.setups), "setup_s", 1)
	frac := 0.0
	if attempted > 0 {
		frac = float64(failed) / float64(attempted)
	}
	o.add("failed_frac", "fraction", frac, int(attempted), "", 0)
	if kinds := h.acct.byKind(); len(kinds) > 0 {
		o.named[len(o.named)-1].note = fmt.Sprintf("failures by kind: %v", kinds)
	}
	o.add("ok_frac", "fraction", 1-frac, int(attempted), "ok_frac", 1)
	h.mu.Lock()
	rss := h.peakRSS
	h.mu.Unlock()
	o.add("server_peak_rss_mb", "MB", rss, 1, "server_peak_rss_mb", 1)
}

// print writes the human-readable report: every named metric with its
// unit, sample count and slot, then the per-layer metrics.
func (o *outcome) print(w io.Writer, trace bool) {
	for _, m := range o.named {
		line := fmt.Sprintf("e2e %-28s %14.6g %-8s n=%d", m.name, m.value, m.unit, m.n)
		if m.note != "" {
			line += " (" + m.note + ")"
		}
		if m.slot != "" {
			line += " -> " + m.slot
		}
		fmt.Fprintln(w, line)
	}
	if trace {
		for _, d := range perLayer {
			fmt.Fprintf(w, "layer %-36s %14.6g %s\n", d.name, o.layers[d.name], d.unit)
		}
	}
}

// jsonMetrics renders the end-to-end slots (trace off) or the per-layer
// metrics (trace on).
func (o *outcome) jsonMetrics(trace bool) map[string]jsonMetric {
	out := make(map[string]jsonMetric)
	if trace {
		for _, d := range perLayer {
			out[d.name] = jsonMetric{Value: o.layers[d.name], Unit: d.unit}
		}
		return out
	}
	for _, m := range o.named {
		if m.slot != "" {
			out[m.slot] = jsonMetric{Value: m.value * m.factor, Unit: unitOf(endToEnd, m.slot)}
		}
	}
	return out
}

// --- statistics --------------------------------------------------------

// pct returns the nearest-rank percentile p of xs and how many samples
// lie beyond it. An empty sample reads 0.
func pct(xs []float64, p float64) (v float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i], len(s) - 1 - i
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// describe renders sizes for the provenance record.
func describe(kv ...string) map[string]string {
	m := make(map[string]string, len(kv)/2)
	for i := 0; i+1 < len(kv); i += 2 {
		m[kv[i]] = strings.TrimSpace(kv[i+1])
	}
	return m
}
