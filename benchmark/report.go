package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tanoq/internal/topology"
)

// metricDef declares one metric: BENCHMARK.json repeats this catalogue
// (the test holds the two together), README.md defines each entry.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
}

// endToEndMetrics are what a user of noctool sees, reported on every
// workload of an untraced run. failed_ops_frac is the fifth: it is 0 on
// a healthy tree, and the driver's contract wants declared metrics that
// are never 0, so it travels as the result line's attempted/failed pair
// and in results.json instead of as a declared metric.
var endToEndMetrics = []metricDef{
	{"wall_s", "s", "lower", 0.15},
	{"cpu_s", "s", "lower", 0.15},
	{"peak_rss_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayerMetrics are the traced run's metrics, in the order README.md
// lists them. The trace.* and sim.* block describes the selected
// workload's sweeps; every other entry is a fixed micro-measurement of
// one layer, the same in every traced run.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"trace.scenario_ms", "ms", "lower", 0},
		{"trace.network_setup_ms", "ms", "lower", 0},
		{"trace.network_run_ms", "ms", "lower", 0},
		{"trace.store_ms", "ms", "lower", 0},
		{"trace.sweep_self_ms", "ms", "lower", 0},
		{"trace.network_share", "ratio", "higher", 0},
		{"trace.overhead_pct", "%", "lower", 0},
		{"sim.cycles", "count", "higher", 0},
		{"sim.delivered_packets", "count", "higher", 0},
		{"sim.preempted_packets", "count", "lower", 0},
		{"sim.rows", "count", "higher", 0},
		{"host_ns_per_sim_cycle", "ns", "lower", 0},
	}
	for _, op := range []string{"steady", "saturated"} {
		for _, k := range topology.Kinds() {
			defs = append(defs, metricDef{"network.step_ns." + op + "." + k.String(), "ns", "lower", 0})
		}
	}
	return append(defs,
		metricDef{"network.step_allocs.steady", "count", "lower", 0},
		metricDef{"runner.speedup", "ratio", "higher", 0},
		metricDef{"runner.imbalance_pct", "%", "lower", 0},
		metricDef{"traffic.next_gap_ns", "ns", "lower", 0},
		metricDef{"sim.geotable_draw_ns", "ns", "lower", 0},
		metricDef{"sim.geometric_log_ns", "ns", "lower", 0},
		metricDef{"stats.delivered_ns", "ns", "lower", 0},
		metricDef{"qos.pick_pvc_ns", "ns", "lower", 0},
		metricDef{"stats.maxmin_shares_us", "us", "lower", 0},
		metricDef{"network.run_ns_per_cycle.idle", "ns", "lower", 0},
		metricDef{"network.skip_speedup.idle", "ratio", "higher", 0},
		metricDef{"network.run_ns_per_cycle.faulted", "ns", "lower", 0},
		metricDef{"workload.closed_ns_per_cycle", "ns", "lower", 0},
		metricDef{"workload.replay_ns_per_cycle", "ns", "lower", 0},
		metricDef{"workload.trace_decode_mb_per_s", "MB/s", "higher", 0},
		metricDef{"workload.trace_encode_mb_per_s", "MB/s", "higher", 0},
		metricDef{"telemetry.probe_overhead_pct", "%", "lower", 0},
		metricDef{"telemetry.write_table_us", "us", "lower", 0},
		metricDef{"network.new_us", "us", "lower", 0},
		metricDef{"network.reset_us", "us", "lower", 0},
		metricDef{"topology.new_graph_us", "us", "lower", 0},
		metricDef{"traffic.synthetic_us", "us", "lower", 0},
		metricDef{"scenario.resolve_us", "us", "lower", 0},
		metricDef{"scenario.grid_us_per_cell", "us", "lower", 0},
		metricDef{"scenario.keys_us_per_cell", "us", "lower", 0},
		metricDef{"scenario.csv_us_per_row", "us", "lower", 0},
		metricDef{"scenario.json_us_per_row", "us", "lower", 0},
		metricDef{"store.put_us", "us", "lower", 0},
		metricDef{"store.journal_record_us", "us", "lower", 0},
		metricDef{"store.bytes_per_entry", "count", "lower", 0},
		metricDef{"runner.overhead_us_per_cell", "us", "lower", 0},
		metricDef{"store.get_hit_us", "us", "lower", 0},
		metricDef{"store.get_miss_us", "us", "lower", 0},
		metricDef{"store.open_journal_us", "us", "lower", 0},
		metricDef{"scenario.durable_warm_us_per_cell", "us", "lower", 0},
		metricDef{"noctool.startup_ms", "ms", "lower", 0},
		metricDef{"noctool.explain_ms", "ms", "lower", 0},
		metricDef{"experiments.fig4a_ms", "ms", "lower", 0},
		metricDef{"experiments.fig4b_ms", "ms", "lower", 0},
		metricDef{"experiments.preempt_ms", "ms", "lower", 0},
		metricDef{"experiments.table2_ms", "ms", "lower", 0},
		metricDef{"experiments.fig5_ms", "ms", "lower", 0},
		metricDef{"experiments.fig6_ms", "ms", "lower", 0},
		metricDef{"experiments.motivation_ms", "ms", "lower", 0},
		metricDef{"experiments.ablate_ms", "ms", "lower", 0},
		metricDef{"experiments.closed_ms", "ms", "lower", 0},
		metricDef{"experiments.analytic_ms", "ms", "lower", 0},
		metricDef{"noctool.build_s", "s", "lower", 0},
	)
}()

// metric is one reported number. Value is the median of the N samples
// beside it (min and max recorded; N is too small for a tail
// percentile, and the printed table says so).
type metric struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples,omitempty"`
}

// summarize reduces samples to a metric.
func summarize(name, unit string, samples []float64) metric {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	m := metric{Name: name, Unit: unit, N: len(s), Samples: samples}
	if len(s) > 0 {
		m.Min, m.Max = s[0], s[len(s)-1]
		m.Value = s[len(s)/2]
		if len(s)%2 == 0 {
			m.Value = (s[len(s)/2-1] + s[len(s)/2]) / 2
		}
	}
	return m
}

// workloadReport is one workload's outcome.
type workloadReport struct {
	Name    string   `json:"name"`
	Why     string   `json:"why"`
	Metrics []metric `json:"metrics"`
	// Attempted/Failed count ops: one per grid cell (or experiment) of
	// every timed repeat plus one per correctness check.
	Attempted     int     `json:"attempted"`
	Failed        int     `json:"failed"`
	FailedOpsFrac float64 `json:"failed_ops_frac"`
	// OutputDigest hashes the workload's outputs with the wall-clock
	// columns dropped: equal digests on two commits mean equal results.
	OutputDigest string   `json:"output_digest,omitempty"`
	Failures     []string `json:"failures,omitempty"`
}

func (w *workloadReport) metric(name string) (metric, bool) {
	for _, m := range w.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

// op records one attempted operation; a non-empty why marks it failed.
func (w *workloadReport) op(why string) {
	w.Attempted++
	if why != "" {
		w.Failed++
		if len(w.Failures) < 20 {
			w.Failures = append(w.Failures, why)
		}
	}
}

// report is results.json.
type report struct {
	Provenance prov             `json:"provenance"`
	Mode       string           `json:"mode"`
	Scale      string           `json:"scale"`
	Warnings   []string         `json:"warnings,omitempty"`
	BuildS     float64          `json:"noctool_build_s"`
	Accuracy   string           `json:"accuracy"`
	Workloads  []workloadReport `json:"workloads"`
	spans      []span
}

// unvalidated is the accuracy statement every report carries: the repo
// holds no machine-readable paper reference values, so no error figure
// can be given.
const unvalidated = "model unvalidated: no reference values in the repository, so no accuracy figure; simulated counts and output digests compare two commits exactly"

func (r *report) print(w io.Writer) {
	p := r.Provenance
	fmt.Fprintf(w, "tanoq benchmark  %s  scale=%s  seed=%d  GOMAXPROCS=%d of %d CPUs  %s  %s\n",
		r.Mode, r.Scale, p.Seed, p.GOMAXPROCS, p.NProc, p.GoVersion, p.CPUModel)
	fmt.Fprintf(w, "head %s  engine %s  noctool build %.2fs (not part of setup_s)\n", orDash(p.GitHead), p.Engine, r.BuildS)
	for _, warn := range r.Warnings {
		fmt.Fprintf(w, "WARNING %s\n", warn)
	}
	fmt.Fprintf(w, "%s\n\n", unvalidated)
	fmt.Fprintf(w, "%-22s %-36s %14s %14s %14s %3s  %s\n", "workload", "metric", "median", "min", "max", "n", "unit")
	for i := range r.Workloads {
		wl := &r.Workloads[i]
		for _, m := range wl.Metrics {
			fmt.Fprintf(w, "%-22s %-36s %14.6g %14.6g %14.6g %3d  %s\n", wl.Name, m.Name, m.Value, m.Min, m.Max, m.N, m.Unit)
		}
		fmt.Fprintf(w, "%-22s %-36s %14.6g %14s %14s %3s  ratio (%d failed of %d ops)\n",
			wl.Name, "failed_ops_frac", wl.FailedOpsFrac, "", "", "", wl.Failed, wl.Attempted)
		if wl.OutputDigest != "" {
			fmt.Fprintf(w, "%-22s output_digest %s\n", wl.Name, wl.OutputDigest)
		}
		for _, f := range wl.Failures {
			fmt.Fprintf(w, "%-22s FAILED %s\n", wl.Name, f)
		}
	}
	fmt.Fprintln(w, "\nmedians of n samples with min and max; n is too small for a tail percentile, so none is reported")
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// write emits results.json, a benchstat-readable bench.txt and, on a
// traced run, trace.json, each carrying the provenance block.
func (r *report) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r.Accuracy = unvalidated
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results.json"), append(blob, '\n'), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "bench.txt"), []byte(r.benchText()), 0o644); err != nil {
		return err
	}
	if r.Mode != "per_layer" {
		return nil
	}
	blob, err = json.MarshalIndent(struct {
		Provenance prov   `json:"provenance"`
		Unit       string `json:"time_unit"`
		Spans      []span `json:"spans"`
	}{r.Provenance, "ns since trace start", r.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace.json"), append(blob, '\n'), 0o644)
}

// benchText renders the samples in Go benchmark format: configuration
// lines, then one result line per sample, so benchstat can compare two
// files sample by sample.
func (r *report) benchText() string {
	p := r.Provenance
	var b strings.Builder
	fmt.Fprintf(&b, "goos: linux\npkg: tanoq/benchmark\ncpu: %s\n", p.CPUModel)
	fmt.Fprintf(&b, "head: %s\ngo: %s\ngomaxprocs: %d\nnproc: %d\nengine: %s\nseed: %d\ndate: %s\nscale: %s\n",
		p.GitHead, p.GoVersion, p.GOMAXPROCS, p.NProc, p.Engine, p.Seed, p.Date, r.Scale)
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "warning: %s\n", w)
	}
	b.WriteString("\n")
	for _, wl := range r.Workloads {
		for _, m := range wl.Metrics {
			for _, v := range m.Samples {
				fmt.Fprintf(&b, "Benchmark/%s/%s-%d 1 %g %s\n", wl.Name, m.Name, p.GOMAXPROCS, v, m.Unit)
			}
		}
	}
	return b.String()
}
