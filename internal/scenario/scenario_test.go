package scenario

import (
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tanoq/internal/experiments"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// loadFile resolves the scenario file at path as its only layer.
func loadFile(path string) (*Scenario, error) {
	sc, _, err := Resolve(FileLayer(path))
	return sc, err
}

func TestParseJSONScenario(t *testing.T) {
	sc, err := Parse([]byte(`{
		"name": "demo",
		"pattern": "transpose",
		"topologies": ["mecs", "dps"],
		"qos": ["pvc", "no-qos"],
		"rates": [0.02, 0.05],
		"seeds": [1, 2, 3],
		"warmup": 500,
		"measure": 2000,
		"burst": {"mean_on": 100, "mean_off": 300}
	}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "demo" || !reflect.DeepEqual(sc.Patterns, []string{"transpose"}) {
		t.Errorf("name/patterns: %q %v", sc.Name, sc.Patterns)
	}
	if !reflect.DeepEqual(sc.Topologies, []topology.Kind{topology.MECS, topology.DPS}) {
		t.Errorf("topologies: %v", sc.Topologies)
	}
	if !reflect.DeepEqual(sc.Modes, []qos.Mode{qos.PVC, qos.NoQoS}) {
		t.Errorf("modes: %v", sc.Modes)
	}
	if !reflect.DeepEqual(sc.Seeds, []uint64{1, 2, 3}) || sc.Warmup != 500 || sc.Measure != 2000 {
		t.Errorf("seeds/schedule: %v %d %d", sc.Seeds, sc.Warmup, sc.Measure)
	}
	if sc.Burst != (traffic.Burst{MeanOn: 100, MeanOff: 300}) {
		t.Errorf("burst: %+v", sc.Burst)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// 1 pattern x 2 topologies x 2 modes x 3 seeds x 2 rates.
	if g.Size() != 24 {
		t.Errorf("grid size %d, want 24", g.Size())
	}
}

func TestParseTOMLScenario(t *testing.T) {
	sc, err := Parse([]byte(`
# comment
name = "toml-demo"
patterns = ["uniform", "shuffle"]  # inline comment
topology = "mesh_x1"
qos = "all"
rates = [0.01, 0.03]
seed = 7
nodes = 8
warmup = 1_000
measure = 4000

[burst]
mean_on = 50
mean_off = 150
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "toml-demo" || len(sc.Patterns) != 2 {
		t.Errorf("name/patterns: %q %v", sc.Name, sc.Patterns)
	}
	if !reflect.DeepEqual(sc.Topologies, []topology.Kind{topology.MeshX1}) {
		t.Errorf("topologies: %v", sc.Topologies)
	}
	if len(sc.Modes) != 3 {
		t.Errorf("qos=all expanded to %v", sc.Modes)
	}
	if sc.Warmup != 1000 || !reflect.DeepEqual(sc.Seeds, []uint64{7}) {
		t.Errorf("warmup/seeds: %d %v", sc.Warmup, sc.Seeds)
	}
	if sc.Burst != (traffic.Burst{MeanOn: 50, MeanOff: 150}) {
		t.Errorf("burst: %+v", sc.Burst)
	}
}

func TestParseTOMLFlows(t *testing.T) {
	sc, err := Parse([]byte(`
name = "flows-demo"
topology = "mecs"

[[flows]]
node = 7
injector = 0
rate = 0.2
dest = "hotspot"

[[flows]]
node = 3
injector = 2
rate = 0.1
dest = 5
stop_at = 9000
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	want := []FlowSpec{
		{Node: 7, Injector: 0, Rate: 0.2, Dest: 0},
		{Node: 3, Injector: 2, Rate: 0.1, Dest: 5, StopAt: 9000},
	}
	if !reflect.DeepEqual(sc.Flows, want) {
		t.Errorf("flows: %+v, want %+v", sc.Flows, want)
	}
	w := sc.flowWorkload()
	if len(w.Specs) != 2 || w.Specs[0].Flow != traffic.FlowOf(7, 0) {
		t.Errorf("flow workload: %+v", w.Specs)
	}
}

func TestScenarioDefaults(t *testing.T) {
	sc, err := Parse([]byte(`{"rates": [0.05]}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sc.Topologies, topology.Kinds()) {
		t.Errorf("default topologies: %v", sc.Topologies)
	}
	if !reflect.DeepEqual(sc.Modes, []qos.Mode{qos.PVC}) {
		t.Errorf("default modes: %v", sc.Modes)
	}
	if !reflect.DeepEqual(sc.Seeds, []uint64{42}) || !reflect.DeepEqual(sc.Patterns, []string{"uniform"}) {
		t.Errorf("default seeds/patterns: %v %v", sc.Seeds, sc.Patterns)
	}
	if sc.Nodes != topology.ColumnNodes || sc.Warmup != 20_000 || sc.Measure != 100_000 {
		t.Errorf("default nodes/schedule: %d %d %d", sc.Nodes, sc.Warmup, sc.Measure)
	}
	if sc.RequestFraction != traffic.DefaultRequestFraction {
		t.Errorf("default request fraction: %v", sc.RequestFraction)
	}
}

func TestScenarioValidationErrors(t *testing.T) {
	cases := map[string]string{
		"bad topology":      `{"rates":[0.05],"topologies":["hypercube"]}`,
		"bad qos":           `{"rates":[0.05],"qos":["besteffort"]}`,
		"bad pattern":       `{"rates":[0.05],"pattern":"nearest"}`,
		"rate over 1":       `{"rates":[1.5]}`,
		"rate zero":         `{"rates":[0]}`,
		"empty sweep":       `{"pattern":"uniform"}`,
		"unknown key":       `{"rates":[0.05],"ratess":[0.05]}`,
		"both rate forms":   `{"rate":0.05,"rates":[0.05]}`,
		"nodes too small":   `{"rates":[0.05],"nodes":1}`,
		"bad measure":       `{"rates":[0.05],"measure":0}`,
		"bit perm non-pow2": `{"rates":[0.05],"pattern":"shuffle","nodes":6}`,
		"burst peak over 1": `{"rates":[0.9],"burst":{"mean_on":10,"mean_off":90}}`,
		"burst sub-cycle":   `{"rates":[0.05],"burst":{"mean_on":0.2,"mean_off":10}}`,
		"flow bad node":     `{"flows":[{"node":12,"rate":0.1}]}`,
		"flow bad injector": `{"flows":[{"node":0,"injector":9,"rate":0.1}]}`,
		"flow bad dest":     `{"flows":[{"node":0,"rate":0.1,"dest":11}]}`,
		"flow bad rate":     `{"flows":[{"node":0,"rate":2}]}`,
		"flows and rates":   `{"rates":[0.05],"flows":[{"node":0,"rate":0.1}]}`,
		"hotspot weights":   `{"rates":[0.05],"pattern":"hotspot","hotspot_weights":[1,2]}`,
		"bad frame":         `{"rates":[0.05],"frame_cycles":1.5}`,
		// Negative values used to read as "default" or "no stop" (and a
		// negative seed wrapped to 2^64-1) while entering the cache key raw.
		"negative stop_at":        `{"rates":[0.05],"stop_at":-5}`,
		"negative flow stop_at":   `{"flows":[{"node":0,"rate":0.1,"stop_at":-5}],"stop_at":100}`,
		"negative seed":           `{"rates":[0.05],"seed":-1}`,
		"negative seeds":          `{"rates":[0.05],"seeds":[1,-1]}`,
		"negative frame_cycles":   `{"rates":[0.05],"frame_cycles":-5}`,
		"negative window_packets": `{"rates":[0.05],"window_packets":-1}`,
		"negative quantum_flits":  `{"rates":[0.05],"quantum_flits":-2}`,
		"negative margin_classes": `{"rates":[0.05],"margin_classes":-3}`,
	}
	for name, blob := range cases {
		if _, err := Parse([]byte(blob), ".json"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTOMLParserErrors(t *testing.T) {
	cases := map[string]string{
		"bare value":      "rates = [0.05]\noops",
		"bad header":      "[burst\nmean_on = 5",
		"redefined key":   "rate = 0.05\nrate = 0.06",
		"redefined table": "[burst]\nmean_on = 5\n[burst]\nmean_off = 5",
		"unterminated":    `name = "x`,
		"bad number":      "rate = 0.05.5",
		"multiline array": "rates = [0.01,\n0.02]",
	}
	for name, src := range cases {
		if _, err := parseTOML(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestTOMLCommentsInsideStrings(t *testing.T) {
	m, err := parseTOML(`name = "a # not a comment" # real comment`)
	if err != nil {
		t.Fatal(err)
	}
	if m["name"] != "a # not a comment" {
		t.Errorf("got %q", m["name"])
	}
}

func TestTOMLEscapedStrings(t *testing.T) {
	m, err := parseTOML(`name = "say \"hi\" to a\\b"`)
	if err != nil {
		t.Fatal(err)
	}
	if want := `say "hi" to a\b`; m["name"] != want {
		t.Errorf("got %q, want %q", m["name"], want)
	}
	for name, src := range map[string]string{
		"bare quote":      `name = "a"b"`,
		"dangling escape": `name = "ab\"`,
	} {
		if _, err := parseTOML(src); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// paperDir holds the scenario files that re-express the paper's
// experiment drivers.
const paperDir = "../../examples/paper/"

// loadPaper resolves one examples/paper file, under a profile when
// prof is set and at the -quick schedule when quick is.
func loadPaper(t *testing.T, file, prof string, quick bool) *Scenario {
	t.Helper()
	layers := []Layer{FileLayer(paperDir + file)}
	if prof != "" {
		layers = append(layers, ProfileLayer(prof))
	}
	if quick {
		q := experiments.QuickParams()
		layers = append(layers, OverrideLayer("-quick",
			fmt.Sprintf("warmup=%d", q.Warmup), fmt.Sprintf("measure=%d", q.Measure)))
	}
	sc, _, err := Resolve(layers...)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

// TestFig4QuickScenarioBitIdentical is the subsystem's acceptance test:
// the quick profiles of examples/paper/fig4a.toml and fig4b.toml must
// reproduce the quick Figure 4 drivers bit-identically — same workload
// construction, same RNG streams, same cell order, same numbers.
func TestFig4QuickScenarioBitIdentical(t *testing.T) {
	for file, pattern := range map[string]experiments.Pattern{
		"fig4a.toml": experiments.Uniform,
		"fig4b.toml": experiments.TornadoPattern,
	} {
		t.Run(file, func(t *testing.T) {
			sc := loadPaper(t, file, "quick", false)
			g, err := sc.Grid()
			if err != nil {
				t.Fatal(err)
			}
			got := runGrid(t, g, RunOpts{})

			p := experiments.QuickParams()
			rates := experiments.QuickFig4Rates()
			series := experiments.Fig4(pattern, rates, p)

			if sc.Warmup != p.Warmup || sc.Measure != p.Measure {
				t.Fatalf("scenario schedule %d/%d drifted from QuickParams %d/%d",
					sc.Warmup, sc.Measure, p.Warmup, p.Measure)
			}
			if !reflect.DeepEqual(sc.Rates, rates) {
				t.Fatalf("scenario rates %v drifted from QuickFig4Rates %v", sc.Rates, rates)
			}
			if want := len(series) * len(rates); len(got) != want {
				t.Fatalf("grid has %d cells, driver grid %d", len(got), want)
			}
			for ki, s := range series {
				for ri, pt := range s.Points {
					r := got[ki*len(rates)+ri]
					if r.Topology != s.Kind || r.Rate != pt.Rate {
						t.Fatalf("cell (%d,%d) is (%v, %v), want (%v, %v)", ki, ri, r.Topology, r.Rate, s.Kind, pt.Rate)
					}
					if r.MeanLatency != pt.MeanLatency || r.P99Latency != pt.P99Latency ||
						r.Accepted != pt.Accepted || r.PreemptionPct != pt.PreemptionPct {
						t.Errorf("%v rate %v: scenario (%v, %v, %v, %v) != driver (%v, %v, %v, %v)",
							s.Kind, pt.Rate,
							r.MeanLatency, r.P99Latency, r.Accepted, r.PreemptionPct,
							pt.MeanLatency, pt.P99Latency, pt.Accepted, pt.PreemptionPct)
					}
				}
			}
		})
	}
}

// TestPaperFig4QuickMatchesExampleFile pins fig4a.toml's quick profile to
// the JSON example of the same grid, so neither can drift alone.
func TestPaperFig4QuickMatchesExampleFile(t *testing.T) {
	file, err := loadFile("../../examples/sweep/fig4-quick.json")
	if err != nil {
		t.Fatal(err)
	}
	paper := loadPaper(t, "fig4a.toml", "quick", false)
	// Names differ (each file's own) and so do the base directories;
	// everything else must not.
	file.Name = paper.Name
	file.baseDir = paper.baseDir
	if !reflect.DeepEqual(file, paper) {
		t.Errorf("example file %+v != fig4a.toml#quick %+v", file, paper)
	}
}

// TestWorkloadFilesMatchTrafficConstructors pins the adversarial
// scenario files to the traffic package's Workload1/Workload2.
func TestWorkloadFilesMatchTrafficConstructors(t *testing.T) {
	for file, ref := range map[string]traffic.Workload{
		"workload1.toml": traffic.Workload1(topology.ColumnNodes, 0),
		"workload2.toml": traffic.Workload2(topology.ColumnNodes, 0),
	} {
		w := loadPaper(t, file, "", false).flowWorkload()
		if len(w.Specs) != len(ref.Specs) {
			t.Fatalf("%s: %d specs, want %d", file, len(w.Specs), len(ref.Specs))
		}
		for i := range w.Specs {
			g, r := w.Specs[i], ref.Specs[i]
			if g.Flow != r.Flow || g.Node != r.Node || g.Rate != r.Rate ||
				g.RequestFraction != r.RequestFraction || g.StopAt != r.StopAt {
				t.Errorf("%s spec %d: %+v != %+v", file, i, g, r)
			}
		}
	}
}

// TestWorkloadFilesMatchFig5 runs the adversarial scenario files at the
// -quick schedule: each topology's preemption column must equal the
// packet bar the Figure 5 driver reports, exactly.
func TestWorkloadFilesMatchFig5(t *testing.T) {
	for file, wl := range map[string]experiments.Adversarial{
		"workload1.toml": experiments.Workload1,
		"workload2.toml": experiments.Workload2,
	} {
		t.Run(file, func(t *testing.T) {
			g, err := loadPaper(t, file, "", true).Grid()
			if err != nil {
				t.Fatal(err)
			}
			got := runGrid(t, g, RunOpts{})
			want := experiments.Fig5(wl, experiments.QuickParams())
			if len(got) != len(want) {
				t.Fatalf("grid has %d cells, Figure 5 has %d bars", len(got), len(want))
			}
			for i, bar := range want {
				if r := got[i]; r.Topology != bar.Kind || r.PreemptionPct != bar.PacketsPct {
					t.Errorf("cell %d: %v preempts %v %%, Figure 5 %v %v %%",
						i, r.Topology, r.PreemptionPct, bar.Kind, bar.PacketsPct)
				}
			}
		})
	}
}

// TestCommittedScenariosResolve resolves every committed example
// scenario under each profile it declares, then expands and keys its
// grid — no simulation. Files named *base.toml exist only to be
// included, and are skipped.
func TestCommittedScenariosResolve(t *testing.T) {
	var paths []string
	for _, glob := range []string{"../../examples/sweep/*", paperDir + "*"} {
		matches, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, matches...)
	}
	resolved := 0
	for _, path := range paths {
		if ext := filepath.Ext(path); (ext != ".toml" && ext != ".json") || strings.HasSuffix(path, "base.toml") {
			continue
		}
		_, res, err := Resolve(FileLayer(path))
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		profiles := []string{""}
		for name := range res.profiles {
			profiles = append(profiles, name)
		}
		for _, prof := range profiles {
			layers := []Layer{FileLayer(path)}
			if prof != "" {
				layers = append(layers, ProfileLayer(prof))
			}
			sc, _, err := Resolve(layers...)
			if err == nil {
				var g *Grid
				if g, err = sc.Grid(); err == nil {
					_, err = g.Keys()
				}
			}
			if err != nil {
				t.Errorf("%s#%s: %v", path, prof, err)
			}
			resolved++
		}
	}
	if resolved == 0 {
		t.Error("found no committed scenario: are the example directories where the test looks?")
	}
}

// TestPatternsSweepCoversAllTopologiesAndModes runs the shipped
// patterns.toml example: four permutation patterns over every topology
// and QoS mode, the acceptance grid of the scenario subsystem.
func TestPatternsSweepCoversAllTopologiesAndModes(t *testing.T) {
	sc, err := loadFile("../../examples/sweep/patterns.toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if want := 4 * 5 * 3; g.Size() != want {
		t.Fatalf("grid size %d, want %d", g.Size(), want)
	}
	results := runGrid(t, g, RunOpts{})
	seen := map[string]bool{}
	for _, r := range results {
		if r.Delivered == 0 {
			t.Errorf("%s/%v/%v delivered nothing", r.Pattern, r.Topology, r.Mode)
		}
		seen[r.Pattern+"/"+r.Topology.String()+"/"+r.Mode.String()] = true
	}
	if len(seen) != g.Size() {
		t.Errorf("only %d distinct cells", len(seen))
	}
}

// TestSweepDeterministicAcrossWorkersAndSkip runs the bursty example on
// 1 worker vs many and with idle skipping on vs off; every variant must
// be bit-identical.
func TestSweepDeterministicAcrossWorkersAndSkip(t *testing.T) {
	sc, err := loadFile("../../examples/sweep/bursty-hotspot.toml")
	if err != nil {
		t.Fatal(err)
	}
	grid := func() *Grid {
		g, err := sc.Grid()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	// Wall-clock is the one legitimately non-deterministic column; every
	// measured field must be bit-identical across the matrix.
	stripWall := func(rs []Result) {
		for i := range rs {
			rs[i].Wall = 0
		}
	}
	base := runGrid(t, grid(), RunOpts{Workers: 1})
	stripWall(base)
	for _, v := range []struct {
		workers int
		skipOff bool
	}{
		{workers: 0},
		{workers: 3},
		{workers: 1, skipOff: true},
		{workers: 0, skipOff: true},
	} {
		g := grid()
		if v.skipOff {
			skipOff(g)
		}
		got := runGrid(t, g, RunOpts{Workers: v.workers})
		stripWall(got)
		if !reflect.DeepEqual(base, got) {
			t.Errorf("results diverged for %+v", v)
		}
	}
}

func TestCSVAndJSONEmission(t *testing.T) {
	sc, err := Parse([]byte(`{"rates":[0.02],"topologies":["mesh_x1"],"warmup":500,"measure":2000}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	res := runGrid(t, g, RunOpts{})
	csv := CSV("emit-test", res)
	if lines := strings.Count(csv, "\n"); lines != 2 {
		t.Errorf("CSV has %d lines, want header + 1 row:\n%s", lines, csv)
	}
	if !strings.Contains(csv, "emit-test,open,uniform,mesh_x1,pvc,42,0.0200") {
		t.Errorf("CSV row malformed:\n%s", csv)
	}
	if !strings.Contains(csv, "tput_stddev_pct_of_mean") {
		t.Errorf("CSV header missing fairness dispersion columns:\n%s", csv)
	}
	blob, err := JSONReport("emit-test", res)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"scenario": "emit-test"`, `"topology": "mesh_x1"`, `"qos": "pvc"`, `"mean_latency_cycles"`} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("JSON missing %s:\n%s", want, blob)
		}
	}
	if out := render("emit-test", res); !strings.Contains(out, "mesh_x1") {
		t.Errorf("render missing row:\n%s", out)
	}
}

func TestLoadRejectsUnknownExtension(t *testing.T) {
	if _, err := Parse([]byte("{}"), ".yaml"); err == nil {
		t.Error("yaml accepted")
	}
}

// csvHeader is the sweep CSV's header line, as the column table must
// spell it.
const csvHeader = "scenario,workload,pattern,topology,qos,seed,rate,outstanding,think_time,retry_timeout,max_retries," +
	"mean_latency_cycles,p99_latency_cycles,accepted_flits_per_cycle,preemption_pct,delivered_packets," +
	"tput_min_pct_of_mean,tput_max_pct_of_mean,tput_stddev_pct_of_mean," +
	"completed_requests,mean_rtt_cycles,p99_rtt_cycles," +
	"delivered_fraction,retries,drops,mean_recovery_cycles,victim_slowdown,wall_ms,cycles_per_sec,attempts,error\n"

// TestCSVChunkedMatchesSerial pins CSV's chunked rendering against a
// serial oracle: header, then each row rendered alone, in order. The
// grid spans several chunks with a ragged tail, and the names need
// escaping.
func TestCSVChunkedMatchesSerial(t *testing.T) {
	name := `sweep, "quoted"`
	results := make([]Result, 3*jobCells+5)
	for i := range results {
		r := &results[i]
		r.Pattern = []string{"uniform", `odd,"pattern"`}[i%2]
		r.Workload = "open"
		r.Topology = topology.Kinds()[i%len(topology.Kinds())]
		r.Seed = uint64(i)
		r.Rate = float64(i) / 1000
		r.MeanLatency = 10 + float64(i)/7
		r.Delivered = int64(i * 13)
		r.Attempts = 1
		if i%17 == 0 {
			r.Error = "failed,\nbadly"
		}
	}
	oracle := func(name string, rs []Result) string {
		out := csvHeader
		for i := range rs {
			out += strings.TrimPrefix(CSV(name, rs[i:i+1]), csvHeader)
		}
		return out
	}
	got := CSV(name, results)
	if want := oracle(name, results); got != want {
		t.Fatalf("chunked CSV differs from the row-by-row oracle:\n%s\nwant:\n%s", got, want)
	}
	if !strings.HasPrefix(strings.TrimPrefix(got, csvHeader), `"sweep, ""quoted""",open,uniform,`) {
		t.Errorf("first row not escaped as expected:\n%s", got[:300])
	}
	if CSV(name, nil) != csvHeader {
		t.Error("empty result set does not render as the bare header")
	}
}
