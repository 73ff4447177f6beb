// Package obs is the dependency-free observability layer: a
// concurrency-safe metrics registry (counters, gauges, histograms with
// fixed log-scale latency buckets) exposed in Prometheus text format,
// and per-query execution traces — structured span trees carrying
// engine counter deltas — that give an EXPLAIN-ANALYZE view of any
// query (docs/OBSERVABILITY.md catalogues both).
//
// Everything is nil-safe: methods on a nil *Registry, *Counter, *Gauge,
// *Histogram, *Trace or *Span are no-ops, so instrumented hot paths pay
// exactly one nil check when observability is off (the invariant
// BenchmarkObsOverhead guards).
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metric types, rendered in the Prometheus # TYPE line.
const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// Registry is a concurrency-safe collection of metric families. Metrics
// are registered lazily: the first Counter/Gauge/Histogram call with a
// name creates the family, later calls with the same name and label set
// return the same metric. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string // registration order, for stable exposition
}

type family struct {
	name, help, typ string
	mu              sync.Mutex
	metrics         map[string]any // key = rendered label pairs
	order           []string
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]any)}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	return f
}

// get returns the metric of the family with exactly these labels,
// creating it with make on first use.
func (f *family) get(labels []string, make func() any) any {
	key := renderLabels(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.metrics[key]
	if !ok {
		m = make()
		f.metrics[key] = m
		f.order = append(f.order, key)
	}
	return m
}

// Counter returns the monotonically increasing counter of that name and
// label pairs (alternating key, value), registering it on first use.
// Nil-safe: a nil registry returns a nil counter whose methods no-op.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeCounter)
	return f.get(labels, func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge of that name and label pairs, registering it
// on first use. Nil-safe like Counter.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeGauge)
	return f.get(labels, func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns the histogram of that name and label pairs,
// registering it on first use with the package's fixed log-scale
// latency buckets (LatencyBuckets). Nil-safe like Counter.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	if r == nil {
		return nil
	}
	f := r.family(name, help, typeHistogram)
	return f.get(labels, func() any { return newHistogram() }).(*Histogram)
}

// Total sums every counter series of the named family across its label
// sets (0 when the family is absent or not a counter), so a labelled
// counter reads as one figure. Nil-safe.
func (r *Registry) Total(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	f := r.families[name]
	r.mu.Unlock()
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	var sum int64
	for _, m := range f.metrics {
		if c, ok := m.(*Counter); ok {
			sum += c.Value()
		}
	}
	return sum
}

// Counter is a monotonically increasing count. The zero value is ready
// to use; all methods are safe for concurrent use and no-ops on nil.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds delta (which must be non-negative; negative deltas are
// dropped — counters only go up).
func (c *Counter) Add(delta int64) {
	if c == nil || delta < 0 {
		return
	}
	c.v.Add(delta)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down. The zero value is ready to
// use; all methods are safe for concurrent use and no-ops on nil.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// LatencyBuckets are the fixed log-scale histogram bucket upper bounds,
// in seconds: 1µs × 4ⁿ up to ~17s, then +Inf. One fixed ladder for
// every latency histogram keeps exposition size bounded and makes
// histograms of different operations directly comparable.
var LatencyBuckets = []float64{
	1e-6, 4e-6, 16e-6, 64e-6, 256e-6,
	1024e-6, 4096e-6, 16384e-6, 65536e-6,
	262144e-6, 1.048576, 4.194304, 16.777216,
}

// Histogram counts observations into the fixed LatencyBuckets ladder
// plus a +Inf overflow, tracking the running sum and count. All methods
// are safe for concurrent use and no-ops on nil.
type Histogram struct {
	buckets []atomic.Int64 // len(LatencyBuckets)+1; last = +Inf
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram() *Histogram {
	return &Histogram{buckets: make([]atomic.Int64, len(LatencyBuckets)+1)}
}

// Observe records one observation of v (in seconds for latencies,
// though any non-negative unit works against the same ladder).
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(LatencyBuckets, v) // first bound ≥ v
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// BucketCounts returns the cumulative per-bucket counts (Prometheus
// histogram semantics: entry i counts observations ≤ LatencyBuckets[i],
// the final entry equals Count).
func (h *Histogram) BucketCounts() []int64 {
	if h == nil {
		return nil
	}
	out := make([]int64, len(h.buckets))
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		out[i] = cum
	}
	return out
}

// renderLabels renders alternating key, value pairs as a canonical
// `{k="v",...}` fragment ("" for no labels). Keys keep caller order —
// callers pass a fixed order per call site, which Prometheus accepts.
func renderLabels(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[i+1]))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// format: backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP string per the Prometheus text format:
// backslash and newline (quotes are legal there).
func escapeHelp(v string) string {
	if !strings.ContainsAny(v, "\\\n") {
		return v
	}
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(v)
}

// formatValue renders a sample value: integral floats print as
// integers, everything else in shortest round-trip form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus renders every registered metric in the Prometheus
// text exposition format (version 0.0.4), families in registration
// order, series in creation order. Safe to call concurrently with
// metric updates; each sample is an atomic read.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.order))
	for _, name := range r.order {
		fams = append(fams, r.families[name])
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		keys := append([]string(nil), f.order...)
		metrics := make([]any, len(keys))
		for i, k := range keys {
			metrics[i] = f.metrics[k]
		}
		f.mu.Unlock()
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n",
			f.name, escapeHelp(f.help), f.name, f.typ); err != nil {
			return err
		}
		for i, key := range keys {
			if err := writeMetric(w, f.name, key, metrics[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

func writeMetric(w io.Writer, name, key string, m any) error {
	switch v := m.(type) {
	case *Counter:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, key, v.Value())
		return err
	case *Gauge:
		_, err := fmt.Fprintf(w, "%s%s %d\n", name, key, v.Value())
		return err
	case *Histogram:
		// The _bucket series re-opens the label set to append le; an
		// unlabelled histogram opens a fresh one.
		open := "{"
		if key != "" {
			open = key[:len(key)-1] + ","
		}
		counts := v.BucketCounts()
		for i, bound := range LatencyBuckets {
			if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"%s\"} %d\n",
				name, open, formatValue(bound), counts[i]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket%sle=\"+Inf\"} %d\n",
			name, open, counts[len(counts)-1]); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, key, formatValue(v.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, key, v.Count())
		return err
	default:
		return fmt.Errorf("obs: unknown metric type %T", m)
	}
}

// Handler serves the registry in Prometheus text format — the GET
// /metrics endpoint. A nil registry serves an empty (valid) exposition.
func Handler(r *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
