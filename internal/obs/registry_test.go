package obs

import (
	"bufio"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestCounterConcurrency hammers one counter, one labelled counter
// family, one gauge and one histogram from many goroutines and asserts
// the sums are exact — the registry's concurrency contract, enforced
// under -race by CI.
func TestCounterConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Counter("c_total", "plain counter").Inc()
				r.Counter("lc_total", "labelled counter", "db", fmt.Sprintf("d%d", g%4)).Add(2)
				r.Gauge("g", "gauge").Add(1)
				r.Histogram("h_seconds", "histogram").Observe(0.001)
			}
		}(g)
	}
	wg.Wait()
	if got := r.Counter("c_total", "").Value(); got != goroutines*per {
		t.Errorf("c_total = %d, want %d", got, goroutines*per)
	}
	var labelled int64
	for d := 0; d < 4; d++ {
		labelled += r.Counter("lc_total", "", "db", fmt.Sprintf("d%d", d)).Value()
	}
	if labelled != goroutines*per*2 {
		t.Errorf("lc_total sum = %d, want %d", labelled, goroutines*per*2)
	}
	if got := r.Total("lc_total"); got != labelled {
		t.Errorf("Total(lc_total) = %d, want %d", got, labelled)
	}
	if r.Total("g") != 0 || r.Total("absent_total") != 0 {
		t.Error("Total of a gauge or an absent family is not 0")
	}
	if got := r.Gauge("g", "").Value(); got != goroutines*per {
		t.Errorf("g = %d, want %d", got, goroutines*per)
	}
	h := r.Histogram("h_seconds", "")
	if h.Count() != goroutines*per {
		t.Errorf("h count = %d, want %d", h.Count(), goroutines*per)
	}
	want := 0.001 * goroutines * per
	if got := h.Sum(); got < want*0.999 || got > want*1.001 {
		t.Errorf("h sum = %g, want ≈ %g", got, want)
	}
}

// TestHistogramBucketBoundaries pins the fixed log-scale ladder's edge
// behaviour: a value exactly on a bound lands in that bound's bucket
// (le semantics), one above lands in the next, and values beyond the
// last bound only count toward +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	h := newHistogram()
	h.Observe(LatencyBuckets[0])                         // exactly 1µs → bucket 0
	h.Observe(LatencyBuckets[0] * 1.5)                   // 1.5µs → bucket 1
	h.Observe(0)                                         // below the ladder → bucket 0
	h.Observe(LatencyBuckets[len(LatencyBuckets)-1] + 1) // beyond → +Inf
	counts := h.BucketCounts()
	// Cumulative: bucket 0 holds the two ≤1µs observations.
	if counts[0] != 2 {
		t.Errorf("bucket[0] = %d, want 2", counts[0])
	}
	if counts[1] != 3 {
		t.Errorf("bucket[1] = %d, want 3 (cumulative)", counts[1])
	}
	last := counts[len(counts)-1]
	if last != 4 {
		t.Errorf("+Inf bucket = %d, want 4 (== count)", last)
	}
	if counts[len(counts)-2] != 3 {
		t.Errorf("largest finite bucket = %d, want 3", counts[len(counts)-2])
	}
	if h.Count() != 4 {
		t.Errorf("count = %d, want 4", h.Count())
	}
	// The ladder must be strictly increasing (SearchFloat64s depends on it).
	for i := 1; i < len(LatencyBuckets); i++ {
		if LatencyBuckets[i] <= LatencyBuckets[i-1] {
			t.Fatalf("LatencyBuckets not strictly increasing at %d", i)
		}
	}
}

// TestPrometheusEscaping pins the text-format escaping rules: label
// values escape backslash, quote and newline; HELP escapes backslash
// and newline.
func TestPrometheusEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("e_total", "help with \\ and\nnewline", "db", "we\"ird\\na\nme").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `# HELP e_total help with \\ and\nnewline`) {
		t.Errorf("HELP not escaped:\n%s", out)
	}
	if !strings.Contains(out, `e_total{db="we\"ird\\na\nme"} 1`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
}

// TestNilSafety: every method on nil receivers must no-op — the
// registry-off invariant the instrumented hot paths rely on.
func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x", "").Inc()
	r.Gauge("x", "").Set(1)
	r.Histogram("x", "").Observe(1)
	if r.Total("x") != 0 {
		t.Error("nil registry total not 0")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	var tr *Trace
	sp := tr.Root().Start("a")
	sp.SetStats(map[string]int64{"x": 1})
	sp.SetAttr("k", "v")
	sp.End()
	if tr.Snapshot() != nil {
		t.Error("nil trace snapshot not nil")
	}
	if tr.ID() != "" {
		t.Error("nil trace id not empty")
	}
}

// TestWritePrometheusParses walks the full exposition line by line and
// checks well-formedness: every non-comment line is `name{labels} value`
// with a parseable value, every series is preceded by its HELP/TYPE
// pair, and histogram series carry _bucket/_sum/_count suffixes.
func TestWritePrometheusParses(t *testing.T) {
	r := NewRegistry()
	r.Counter("q_total", "queries", "db", "w", "mode", "exact").Add(3)
	r.Counter("q_total", "queries", "db", "d", "mode", "approx").Add(1)
	r.Gauge("active", "active sessions").Set(2)
	h := r.Histogram("lat_seconds", "latency")
	h.Observe(0.002)
	h.Observe(3e-6)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	typed := map[string]string{}
	sc := bufio.NewScanner(strings.NewReader(b.String()))
	n := 0
	for sc.Scan() {
		line := sc.Text()
		n++
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(line)
			if len(fields) != 4 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			typed[fields[2]] = fields[3]
			continue
		}
		name, value, ok := splitSample(line)
		if !ok {
			t.Fatalf("malformed sample line: %q", line)
		}
		var f float64
		if _, err := fmt.Sscanf(value, "%g", &f); err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name,
			"_bucket"), "_sum"), "_count")
		if _, ok := typed[name]; !ok {
			if _, ok := typed[base]; !ok {
				t.Fatalf("sample %q not preceded by a TYPE line", line)
			}
		}
	}
	if n < 10 {
		t.Fatalf("suspiciously short exposition (%d lines):\n%s", n, b.String())
	}
	if typed["q_total"] != "counter" || typed["active"] != "gauge" || typed["lat_seconds"] != "histogram" {
		t.Errorf("TYPE lines wrong: %v", typed)
	}
	for _, want := range []string{
		`q_total{db="w",mode="exact"} 3`,
		`active 2`,
		`lat_seconds_count 2`,
		`lat_seconds_bucket{le="+Inf"} 2`,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}
}

// splitSample splits `name{...} value` or `name value` into the series
// name (with labels stripped) and the value text.
func splitSample(line string) (name, value string, ok bool) {
	if i := strings.IndexByte(line, '{'); i >= 0 {
		j := strings.LastIndexByte(line, '}')
		if j < i {
			return "", "", false
		}
		return line[:i], strings.TrimSpace(line[j+1:]), true
	}
	fields := strings.Fields(line)
	if len(fields) != 2 {
		return "", "", false
	}
	return fields[0], fields[1], true
}

// TestTraceSpanTree exercises the recorder: nested spans, stats
// attribution, concurrent child recording, snapshot detachment, and
// the Summary/SumStats helpers.
func TestTraceSpanTree(t *testing.T) {
	clock := time.Unix(1000, 0)
	now := func() time.Time { clock = clock.Add(time.Millisecond); return clock }
	tr := NewTrace("q1", now)
	open := tr.Root().Start("open")
	open.SetStats(map[string]int64{"iterations": 2})
	open.End()
	var wg sync.WaitGroup
	page := tr.Root().Start("next", "k", "7")
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sp := page.Start("task", "label", fmt.Sprintf("t%d", i))
			sp.SetStats(map[string]int64{"iterations": 1})
			sp.End()
		}(i)
	}
	wg.Wait()
	page.SetStats(map[string]int64{"iterations": 8, "emitted": 8})
	page.End()

	d := tr.Snapshot()
	if d.ID != "q1" {
		t.Errorf("id = %q", d.ID)
	}
	if len(d.Root.Children) != 2 {
		t.Fatalf("root children = %d, want 2", len(d.Root.Children))
	}
	if got := len(d.FindAll("task")); got != 8 {
		t.Errorf("task spans = %d, want 8", got)
	}
	if got := d.SumStats("task")["iterations"]; got != 8 {
		t.Errorf("task iterations sum = %d, want 8", got)
	}
	if got := d.SumStats("next")["emitted"]; got != 8 {
		t.Errorf("next emitted sum = %d, want 8", got)
	}
	if d.Root.Children[1].Attrs["k"] != "7" {
		t.Errorf("page attrs = %v", d.Root.Children[1].Attrs)
	}
	for _, sp := range d.FindAll("task") {
		if sp.DurationNanos <= 0 {
			t.Errorf("task span has no duration")
		}
	}
	// Snapshot is detached: extending the copy must not be possible.
	if d.Root.Start("after") != nil {
		t.Error("snapshot span accepted a child")
	}
	sum := d.Summary()
	for _, want := range []string{"task×8", "next×1", "open×1"} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary %q missing %q", sum, want)
		}
	}
}
