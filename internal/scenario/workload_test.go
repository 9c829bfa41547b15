package scenario

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/topology"
	"tanoq/internal/workload"
)

// TestWorkloadTableDecode pins the [workload] table: the mode axis, the
// closed-loop axes and the transaction shape all decode and default.
func TestWorkloadTableDecode(t *testing.T) {
	sc, err := Parse([]byte(`
rates = [0.05]
topology = "mesh_x1"

[workload]
mode = ["open", "closed"]
outstanding = [2, 8]
think_time = [0, 50]
request_flits = 4
reply_flits = 1
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.WorkloadModes) != 2 || sc.WorkloadModes[0] != "open" || sc.WorkloadModes[1] != "closed" {
		t.Errorf("modes %v", sc.WorkloadModes)
	}
	if len(sc.Outstanding) != 2 || sc.Outstanding[1] != 8 {
		t.Errorf("outstanding %v", sc.Outstanding)
	}
	if len(sc.ThinkTimes) != 2 || sc.ThinkTimes[1] != 50 {
		t.Errorf("think times %v", sc.ThinkTimes)
	}
	if sc.RequestFlits != 4 || sc.ReplyFlits != 1 {
		t.Errorf("shape %d/%d", sc.RequestFlits, sc.ReplyFlits)
	}

	// Defaults: no table means open-only; closed mode defaults its axes.
	sc, err = Parse([]byte(`{"rates":[0.05]}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.WorkloadModes) != 1 || sc.WorkloadModes[0] != "open" {
		t.Errorf("default modes %v", sc.WorkloadModes)
	}
	sc, err = Parse([]byte("[workload]\nmode = \"closed\"\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Outstanding) != 1 || sc.Outstanding[0] != 4 || len(sc.ThinkTimes) != 1 {
		t.Errorf("closed defaults: outstanding %v think %v", sc.Outstanding, sc.ThinkTimes)
	}
}

// TestWorkloadTableRejections pins the validation surface of the new
// axes.
func TestWorkloadTableRejections(t *testing.T) {
	cases := map[string]string{
		"unknown mode":          "[workload]\nmode = \"batch\"\n",
		"repeated mode":         "rates = [0.1]\n[workload]\nmode = [\"open\", \"open\"]\n",
		"unknown workload key":  "[workload]\nmode = \"closed\"\nwindow = 4\n",
		"closed axes open-only": "rates = [0.1]\n[workload]\noutstanding = 4\n",
		"zero outstanding":      "[workload]\nmode = \"closed\"\noutstanding = 0\n",
		"negative think":        "[workload]\nmode = \"closed\"\nthink_time = -1\n",
		"bad flits":             "[workload]\nmode = \"closed\"\nrequest_flits = 2\n",
		"shape without closed":  "rates = [0.1]\n[workload]\nrequest_flits = 4\n",
		"rates closed-only":     "rates = [0.1]\n[workload]\nmode = \"closed\"\n",
		"open without rates":    "[workload]\nmode = [\"closed\", \"open\"]\n",
		"trace plus mode":       "[workload]\nmode = \"closed\"\ntrace = \"x.trace\"\n",
		"burst closed-only":     "[burst]\nmean_on = 5\nmean_off = 5\n[workload]\nmode = \"closed\"\n",
		"stop_at with trace":    "stop_at = 100\n[workload]\ntrace = \"x.trace\"\n",
		"req_fraction closed":   "request_fraction = 0.9\n[workload]\nmode = \"closed\"\n",
		"trace plus rates":      "rates = [0.1]\n[workload]\ntrace = \"x.trace\"\n",
		"empty trace path":      "[workload]\ntrace = \"\"\n",
		"closed plus flows":     "[[flows]]\nnode = 1\nrate = 0.2\n[workload]\nmode = \"closed\"\n",
	}
	for name, src := range cases {
		if _, err := Parse([]byte(src), ".toml"); err == nil {
			t.Errorf("%s: accepted:\n%s", name, src)
		}
	}
}

// TestClosedGridExpansion pins the closed-loop fan-out: pattern ×
// topology × qos × seed × outstanding × think cells, each carrying a
// Setup that attaches a controller, and closed cells coexisting with the
// open rate grid of the same scenario.
func TestClosedGridExpansion(t *testing.T) {
	sc, err := Parse([]byte(`
rates = [0.01, 0.02]
pattern = "uniform"
topologies = ["mesh_x1", "mecs"]
qos = ["pvc", "no-qos"]
seeds = [1, 2]
warmup = 100
measure = 400

[workload]
mode = ["open", "closed"]
outstanding = [2, 4]
think_time = [0, 30]
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// open: 2 topo x 2 qos x 2 seed x 2 rate = 16; closed: 2x2x2 x (2
	// outstanding x 2 think) = 32.
	if g.Size() != 48 {
		t.Fatalf("grid has %d cells, want 48", g.Size())
	}
	var open, closed int
	for i, p := range g.Points {
		switch p.Workload {
		case "open":
			open++
			if g.Cell(i).Setup != nil {
				t.Fatalf("open cell %d has a Setup", i)
			}
		case "closed":
			closed++
			if g.Cell(i).Setup == nil {
				t.Fatalf("closed cell %d missing Setup", i)
			}
			if p.Outstanding == 0 {
				t.Fatalf("closed cell %d missing outstanding axis", i)
			}
			if p.Rate != 0 {
				t.Fatalf("closed cell %d carries a rate", i)
			}
		default:
			t.Fatalf("cell %d has workload %q", i, p.Workload)
		}
	}
	if open != 16 || closed != 32 {
		t.Fatalf("open/closed split %d/%d, want 16/32", open, closed)
	}

	// The closed cells run end to end through the grid and surface
	// round-trip results.
	sc2, err := Parse([]byte("warmup = 200\nmeasure = 1000\ntopology = \"mesh_x1\"\n[workload]\nmode = \"closed\"\nthink_time = 20\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := sc2.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res := runGrid(t, g2, RunOpts{Workers: 1})
	if len(res) != 1 {
		t.Fatalf("%d results", len(res))
	}
	r := res[0]
	if r.Completed == 0 || r.MeanRTT <= 0 || r.P99RTT <= 0 {
		t.Errorf("closed result missing round-trip metrics: %+v", r)
	}
	if r.TputStdDevPct < 0 {
		t.Errorf("negative dispersion: %+v", r)
	}
	if !strings.Contains(CSV("x", res), ",closed,") {
		t.Error("CSV row does not mark the closed workload class")
	}
}

// TestOpenCellsCarryFairnessDispersion pins the satellite: every sweep
// row reports Table-2-style per-flow throughput dispersion.
func TestOpenCellsCarryFairnessDispersion(t *testing.T) {
	sc, err := Parse([]byte(`{"rates":[0.05],"topologies":["mesh_x1"],"warmup":200,"measure":2000}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res := runGrid(t, g, RunOpts{Workers: 1})
	r := res[0]
	if r.TputMinPct <= 0 || r.TputMaxPct < 100 || r.TputStdDevPct <= 0 {
		t.Errorf("dispersion not populated: min %.2f max %.2f sd %.2f", r.TputMinPct, r.TputMaxPct, r.TputStdDevPct)
	}
	if r.Completed != 0 || r.MeanRTT != 0 {
		t.Errorf("open cell carries closed metrics: %+v", r)
	}
}

// TestTraceAxisGridExpansion records a real run, then drives the
// scenario trace axis over the capture: trace × topology × qos × seed
// cells replaying it, with relative paths anchored at the scenario file.
func TestTraceAxisGridExpansion(t *testing.T) {
	dir := t.TempDir()
	rec := recordRun(t)
	tr := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 42, Warmup: 200, Measure: 800,
	})
	if err := os.WriteFile(filepath.Join(dir, "t.trace"), tr.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "replay.toml")
	if err := os.WriteFile(scPath, []byte(
		"topology = \"mesh_x1\"\nqos = [\"pvc\", \"no-qos\"]\nwarmup = 200\nmeasure = 800\n[workload]\ntrace = \"t.trace\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := loadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 {
		t.Fatalf("grid has %d cells, want 2", g.Size())
	}
	res := runGrid(t, g, RunOpts{Workers: 1})
	for _, r := range res {
		if !strings.HasPrefix(r.Workload, "replay:") {
			t.Errorf("replay cell labeled %q", r.Workload)
		}
		if r.Delivered == 0 {
			t.Errorf("replay cell delivered nothing: %+v", r)
		}
	}
	// Replays are deterministic: both modes consumed the identical
	// injection stream, so the injected population matches.
	if res[0].Delivered == 0 || res[0].TputStdDevPct < 0 {
		t.Errorf("replay dispersion missing: %+v", res[0])
	}
}

// TestReplayGridHoldsTraceOnce pins what expanding a replay scenario
// allocates: the file's bytes and one 24-byte traffic.ReplayEvent a
// record, nothing else that grows with the trace. A uniform mesh_x1 cell
// of 50 000 cycles is recorded into a file; Scenario.Grid over a replay
// scenario of it must allocate (runtime TotalAlloc) at most file bytes +
// 1.1 × 24 B × records + 64 KB. Over 63 953 records in 319 795 bytes it
// allocates 1.89 MB against a 2.07 MB bound. Decoding the whole trace into
// 40-byte traffic.TraceRecords and then grouping them into append-grown
// replay streams allocated 7.89 MB.
func TestReplayGridHoldsTraceOnce(t *testing.T) {
	dir := t.TempDir()
	rec := recordRun(t, `{"rates":[0.05],"topologies":["mesh_x1"],"warmup":0,"measure":50000}`)
	blob := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc", Measure: 50_000,
	}).Encode()
	if err := os.WriteFile(filepath.Join(dir, "t.trace"), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "replay.toml")
	if err := os.WriteFile(scPath, []byte(
		"topology = \"mesh_x1\"\nqos = \"pvc\"\nmeasure = 50000\n[workload]\ntrace = \"t.trace\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	sc, err := loadFile(scPath)
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	g, err := sc.Grid()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 1 {
		t.Fatalf("grid has %d cells, want 1", g.Size())
	}
	got := after.TotalAlloc - before.TotalAlloc
	bound := uint64(len(blob)) + uint64(1.1*24*float64(rec.Len())) + 64<<10
	t.Logf("Grid allocated %d B for %d records in %d file bytes (bound %d B)", got, rec.Len(), len(blob), bound)
	if got > bound {
		t.Errorf("Grid allocated %d B over a %d-record trace of %d bytes, want at most %d", got, rec.Len(), len(blob), bound)
	}
}

// recordRun captures the first cell of a JSON scenario, by default a
// short open-loop run on mesh x1.
func recordRun(t *testing.T, scenario ...string) *workload.Recorder {
	t.Helper()
	src := `{"rates":[0.05],"topologies":["mesh_x1"],"warmup":200,"measure":800}`
	if len(scenario) > 0 {
		src = scenario[0]
	}
	sc, err := Parse([]byte(src), ".json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	cell := g.Cell(0)
	n, err := network.New(cell.Config)
	if err != nil {
		t.Fatal(err)
	}
	rec := &workload.Recorder{}
	rec.Attach(n)
	n.WarmupAndMeasure(cell.Warmup, cell.Measure)
	if rec.Len() == 0 {
		t.Fatal("recorded nothing")
	}
	return rec
}
