package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the harness binary where the
// harness re-executes itself as the launcher.
func TestMain(m *testing.M) {
	if len(os.Args) > 2 && os.Args[1] == launchArg {
		os.Exit(launch(os.Args[2:]))
	}
	os.Exit(m.Run())
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// smoke runs the harness in-process at smoke scale, keeping its build
// and output trees out of the repository, and returns stdout and the
// results it wrote.
func smoke(t *testing.T, args ...string) (string, report) {
	t.Helper()
	out := t.TempDir()
	args = append([]string{"-smoke", "-out", out, "-work", t.TempDir()}, args...)
	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args, &stdout, &stderr); code != 0 {
		t.Fatalf("benchmark %v: exit %d\n%s", args, code, stderr.String())
	}
	blob, err := os.ReadFile(filepath.Join(out, "results.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep report
	if err := json.Unmarshal(blob, &rep); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"bench.txt", "trace.json"} {
		if _, err := os.Stat(filepath.Join(out, name)); (err == nil) != (name == "bench.txt" || rep.Mode == "per_layer") {
			t.Errorf("%s in %s mode: %v", name, rep.Mode, err)
		}
	}
	return stdout.String(), rep
}

// checkEmitted holds what a run emitted against what BENCHMARK.json
// declares: every declared metric on every workload, nothing undeclared,
// units as declared, and no failed op on this tree.
func checkEmitted(t *testing.T, rep report, b benchmarkJSON, decl []declared) {
	t.Helper()
	if len(rep.Workloads) != len(b.Workloads) {
		t.Fatalf("ran %d workloads, BENCHMARK.json declares %d", len(rep.Workloads), len(b.Workloads))
	}
	for i, wl := range rep.Workloads {
		if wl.Name != b.Workloads[i].Name {
			t.Errorf("workload %d is %s, BENCHMARK.json says %s", i, wl.Name, b.Workloads[i].Name)
		}
		if wl.Failed != 0 || wl.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", wl.Name, wl.Failed, wl.Attempted, wl.Failures)
		}
		units := map[string]string{}
		for _, m := range wl.Metrics {
			units[m.Name] = m.Unit
		}
		for _, d := range decl {
			if unit, ok := units[d.Name]; !ok {
				t.Errorf("%s: declared metric %s was not emitted", wl.Name, d.Name)
			} else if unit != d.Unit {
				t.Errorf("%s: %s emitted in %s, declared in %s", wl.Name, d.Name, unit, d.Unit)
			}
			delete(units, d.Name)
		}
		for name := range units {
			t.Errorf("%s: emitted metric %s is not declared in BENCHMARK.json", wl.Name, name)
		}
	}
}

// TestSmokeMatchesBenchmarkJSON runs every workload end to end and the
// whole traced pass at smoke scale — no timing assertions — and holds
// the emitted metrics to BENCHMARK.json.
func TestSmokeMatchesBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	_, e2e := smoke(t)
	checkEmitted(t, e2e, b, b.EndToEnd)
	for _, wl := range e2e.Workloads {
		if wl.OutputDigest == "" {
			t.Errorf("%s: no output digest recorded", wl.Name)
		}
	}
	_, traced := smoke(t, "-trace", "1")
	checkEmitted(t, traced, b, b.PerLayer)
	for _, wl := range traced.Workloads {
		if wl.Name != "short_cells_warm" {
			continue
		}
		if m, _ := wl.metric("trace.network_run_ms"); m.Value != 0 {
			t.Errorf("short_cells_warm simulated for %v ms in the traced run; a warm cache must execute nothing", m.Value)
		}
	}
	p := e2e.Provenance
	if p.GoVersion == "" || p.GOMAXPROCS == 0 || p.NProc == 0 || p.Engine == "" || p.Date == "" {
		t.Errorf("incomplete provenance: %+v", p)
	}
}

// TestContractLine checks the driver's view of a single-workload run:
// the last line of stdout is one JSON object with exactly the contract's
// keys and the declared end-to-end metrics.
func TestContractLine(t *testing.T) {
	b := loadBenchmarkJSON(t)
	stdout, _ := smoke(t, "--workload", "short_cells_warm", "--seed", "7", "--seconds", "1", "--trace", "0")
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	if len(line) != 4 {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", line)
	}
	var metrics map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(b.EndToEnd) {
		t.Errorf("result line carries %d metrics, BENCHMARK.json declares %d end-to-end", len(metrics), len(b.EndToEnd))
	}
	for _, d := range b.EndToEnd {
		if m, ok := metrics[d.Name]; !ok || m.Value <= 0 || m.Unit != d.Unit {
			t.Errorf("result line metric %s = %+v (present %v)", d.Name, m, ok)
		}
	}
	if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("correct=%s failed=%s", line["correct"], line["failed"])
	}
}

// TestBenchmarkJSONShape holds BENCHMARK.json to the limits the driver
// enforces and to the harness's own catalogue.
func TestBenchmarkJSONShape(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	unique := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside [A-Za-z0-9_.-]{1,64}", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", b.Paths)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, harness default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, harness has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		unique("workload", w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s declared, harness has %s", i, w.Name, workloads[i].name)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, decl []declared, catalogue []metricDef, limit int, bounded bool) {
		if len(decl) != len(catalogue) || len(decl) > limit {
			t.Fatalf("%s: %d declared, catalogue has %d, limit %d", kind, len(decl), len(catalogue), limit)
		}
		for i, d := range decl {
			unique(kind, d.Name)
			c := catalogue[i]
			if d.Name != c.Name || d.Unit != c.Unit || d.Better != c.Better {
				t.Errorf("%s %d: declared %+v, catalogue %+v", kind, i, d, c)
			}
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s %s: unit %q", kind, d.Name, d.Unit)
			}
			switch {
			case !bounded && d.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.Name)
			case bounded && (d.Bound == nil || *d.Bound != c.Bound || *d.Bound <= 0 || *d.Bound > 0.25):
				t.Errorf("%s %s: bound %v, catalogue %v, limit 0.25", kind, d.Name, d.Bound, c.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEndMetrics, 16, true)
	check("per_layer", b.PerLayer, perLayerMetrics, 128, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestNormalizeCSVDropsWallClockByName: two runs of the same cells
// differ only in wall_ms and cycles_per_sec, wherever those columns sit.
func TestNormalizeCSVDropsWallClockByName(t *testing.T) {
	a := "seed,wall_ms,delivered_fraction,cycles_per_sec,error\n42,1.5,1.000000,900,\n"
	b := "seed,wall_ms,delivered_fraction,cycles_per_sec,error\n42,7.25,1.000000,123,\n"
	c := "seed,wall_ms,delivered_fraction,cycles_per_sec,error\n43,1.5,1.000000,900,\n"
	da, _, err := normalizeCSV([]byte(a))
	if err != nil {
		t.Fatal(err)
	}
	db, _, _ := normalizeCSV([]byte(b))
	dc, _, _ := normalizeCSV([]byte(c))
	if da != db {
		t.Error("digests differ on wall-clock columns alone")
	}
	if da == dc {
		t.Error("digest ignores a result column")
	}
	if _, _, err := normalizeCSV([]byte("seed,error\n42,\n")); err == nil {
		t.Error("a CSV without the wall-clock columns must be rejected, not hashed whole")
	}
}
