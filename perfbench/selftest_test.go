package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFDServe builds the server under test once per test binary.
func buildFDServe(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "fdserve")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/fdserve")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build fdserve: %v\n%s", err, out)
	}
	return bin
}

func tinyConfig(bin, workload string, trace bool, workdir string) config {
	return config{workload: workload, seed: 7, seconds: 1, trace: trace, fdserve: bin,
		workdir: workdir, sizes: tinySizes, hotRate: 100, setups: 2}
}

// benchmarkJSON is the part of BENCHMARK.json the self-test compares
// with the catalogue.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], catalogue %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

// TestSelfTest runs every workload at tiny sizes, untraced and traced,
// and checks that every metric is emitted with its unit and that the
// stated predictions hold.
func TestSelfTest(t *testing.T) {
	bin := buildFDServe(t)
	layers := map[string]map[string]float64{}
	for _, wl := range []string{"cold-drain", "hot-serve", "append-recover"} {
		for _, trace := range []bool{false, true} {
			var out, log bytes.Buffer
			res, err := execute(tinyConfig(bin, wl, trace, t.TempDir()), &out, &log)
			if err != nil {
				t.Fatalf("%s trace=%v: %v\n%s\n%s", wl, trace, err, out.String(), log.String())
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Fatalf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", wl, trace,
					res.Correct, res.Attempted, res.Failed, out.String())
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s missing or not in %s: %+v", wl, trace, d.name, d.unit, m)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want positive", wl, d.name, m.Value)
				}
			}
			for _, line := range strings.Split(out.String(), "\n") {
				if strings.HasPrefix(line, "e2e ") && !strings.Contains(line, " n=") {
					t.Errorf("%s: report line without a sample count: %q", wl, line)
				}
			}
			if trace {
				layers[wl] = map[string]float64{}
				for name, m := range res.Metrics {
					layers[wl][name] = m.Value
				}
			}
		}
	}

	if v := layers["cold-drain"]["service.cache_hit_ratio"]; v != 0 {
		t.Errorf("cold-drain cache hit ratio %v, predicted 0", v)
	}
	if v := layers["hot-serve"]["service.cache_hit_ratio"]; v != 1 {
		t.Errorf("hot-serve cache hit ratio %v, predicted 1", v)
	}
	if v := layers["hot-serve"]["core.jcc_checks"]; v != 0 {
		t.Errorf("hot-serve sessions did %v JCC checks, predicted 0", v)
	}
	if v := layers["cold-drain"]["core.jcc_checks"]; v <= 0 {
		t.Errorf("cold-drain did %v JCC checks, want engine work", v)
	}
	for _, d := range perLayer {
		if !strings.HasPrefix(d.name, "store.") && !strings.HasPrefix(d.name, "relation.") &&
			!strings.HasPrefix(d.name, "delta.") {
			continue
		}
		if v := layers["append-recover"][d.name]; v <= 0 {
			t.Errorf("append-recover %s = %v, predicted non-zero", d.name, v)
		}
		for _, wl := range []string{"cold-drain", "hot-serve"} {
			if v := layers[wl][d.name]; v != 0 {
				t.Errorf("%s %s = %v, predicted 0", wl, d.name, v)
			}
		}
	}
}

// TestCountersRepeat runs cold-drain twice with one seed: the
// Workers-1 engine counters must hash to the same digest.
func TestCountersRepeat(t *testing.T) {
	bin := buildFDServe(t)
	digest := func() string {
		var out, log bytes.Buffer
		if _, err := execute(tinyConfig(bin, "cold-drain", false, t.TempDir()), &out, &log); err != nil {
			t.Fatalf("%v\n%s", err, log.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if raw, ok := strings.CutPrefix(line, "# provenance "); ok {
				var p provenance
				if err := json.Unmarshal([]byte(raw), &p); err != nil {
					t.Fatal(err)
				}
				return p.CounterDigest
			}
		}
		t.Fatal("no provenance line")
		return ""
	}
	a, b := digest(), digest()
	if a == "" || a != b {
		t.Fatalf("counter digests %q and %q, want equal and non-empty", a, b)
	}
}

// TestFailedCheckCleansUp forces a correctness check to fail and checks
// that the run reports it, exits with errCheck, kills every fdserve it
// started and removes its scratch directory.
func TestFailedCheckCleansUp(t *testing.T) {
	bin := buildFDServe(t)
	for _, wl := range []struct{ workload, check string }{
		{"cold-drain", "results-equal-local"},
		{"append-recover", "restart-drain"},
	} {
		workdir := t.TempDir()
		cfg := tinyConfig(bin, wl.workload, false, workdir)
		cfg.sabotage = wl.check
		var out, log bytes.Buffer
		res, err := execute(cfg, &out, &log)
		if !errors.Is(err, errCheck) {
			t.Fatalf("%s: error %v, want errCheck", wl.workload, err)
		}
		if res == nil || res.Correct {
			t.Fatalf("%s: result %+v, want correct=false", wl.workload, res)
		}
		if !strings.Contains(out.String(), "CHECK FAILED: "+wl.check) {
			t.Errorf("%s: report does not name the failed check:\n%s", wl.workload, out.String())
		}
		if entries, _ := os.ReadDir(workdir); len(entries) != 0 {
			t.Errorf("%s: scratch left behind: %v", wl.workload, entries)
		}
		if pids := running(t, bin); len(pids) > 0 {
			t.Errorf("%s: fdserve still running: %v", wl.workload, pids)
		}
	}
}

// running lists the pids whose command line starts with bin.
func running(t *testing.T, bin string) []string {
	t.Helper()
	procs, err := filepath.Glob("/proc/[0-9]*/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	var pids []string
	for _, p := range procs {
		raw, err := os.ReadFile(p)
		if err != nil {
			continue // exited meanwhile
		}
		if strings.HasPrefix(string(raw), bin+"\x00") {
			pids = append(pids, filepath.Base(filepath.Dir(p)))
		}
	}
	return pids
}
