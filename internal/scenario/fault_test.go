package scenario

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

func TestParseTOMLFaults(t *testing.T) {
	sc, err := Parse([]byte(`
name = "faulted"
topology = "mesh_x1"
rate = 0.02
stop_at = 6000
warmup = 0
measure = 8000

[faults]
retry_timeouts = [0, 400]
max_retries = 6
watchdog_cycles = 50_000

[[faults.link]]
port = 3
from = 1000
until = 2000

[[faults.link]]
port = 4
from = 2500
permanent = true

[[faults.router]]
node = 2
from = 3000
until = 3500
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	want := []noc.FaultWindow{
		{Kind: noc.FaultLinkTransient, Port: 3, From: 1000, Until: 2000},
		{Kind: noc.FaultLinkPermanent, Port: 4, From: 2500},
		{Kind: noc.FaultRouterStall, Node: 2, From: 3000, Until: 3500},
	}
	if !reflect.DeepEqual(sc.FaultWindows, want) {
		t.Errorf("windows: %+v, want %+v", sc.FaultWindows, want)
	}
	if !reflect.DeepEqual(sc.RetryTimeouts, []sim.Cycle{0, 400}) {
		t.Errorf("retry timeouts: %v", sc.RetryTimeouts)
	}
	if !reflect.DeepEqual(sc.MaxRetriesAxis, []int{6}) || sc.WatchdogCycles != 50_000 {
		t.Errorf("max retries %v / watchdog %d", sc.MaxRetriesAxis, sc.WatchdogCycles)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	// 1 pattern × 1 topology × 1 mode × 1 seed × 1 rate × 2 retry timeouts.
	if g.Size() != 2 {
		t.Fatalf("grid size %d, want 2", g.Size())
	}
	if g.Points[0].RetryTimeout != 0 || g.Points[1].RetryTimeout != 400 {
		t.Errorf("retry axis points: %+v", g.Points)
	}
	for i := range g.Size() {
		cfg := g.Cell(i).Config
		if len(cfg.Faults.Windows) != 3 || cfg.WatchdogCycles != 50_000 || cfg.Faults.MaxRetries != 6 {
			t.Errorf("cell %d fault config: %+v wd=%d", i, cfg.Faults, cfg.WatchdogCycles)
		}
	}
	results := runGrid(t, g, RunOpts{Workers: 2})
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("row %d failed: %s", i, r.Error)
		}
		if r.Delivered == 0 || r.DeliveredFraction <= 0 || r.DeliveredFraction > 1 {
			t.Errorf("row %d delivered %d fraction %v", i, r.Delivered, r.DeliveredFraction)
		}
	}
}

// TestScenarioFaultAxesDefault pins that a scenario without a [faults]
// table expands to exactly the same cell layout as before the fault axes
// existed: defaulted axes contribute one iteration with zero values.
func TestScenarioFaultAxesDefault(t *testing.T) {
	sc, err := Parse([]byte(`{"rates":[0.02,0.05],"topologies":["mecs"],"seeds":[1,2]}`), ".json")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 4 || len(refIdx(g)) != 0 {
		t.Fatalf("grid %d cells, %d ref cells; want 4, 0", g.Size(), len(refIdx(g)))
	}
	for i := range g.Size() {
		if cfg := g.Cell(i).Config; len(cfg.Faults.Windows) > 0 || cfg.Faults.RetryTimeout > 0 || cfg.WatchdogCycles != 0 {
			t.Errorf("cell %d carries fault config: %+v", i, cfg.Faults)
		}
		if g.Points[i].RetryTimeout != 0 || g.Points[i].MaxRetries != 0 {
			t.Errorf("point %d carries recovery axes: %+v", i, g.Points[i])
		}
	}
}

func TestScenarioFaultValidation(t *testing.T) {
	cases := []struct{ name, src string }{
		{"unknown faults key", "rate = 0.05\n[faults]\nbogus = 1\n"},
		{"negative retry timeout", "rate = 0.05\n[faults]\nretry_timeout = -1\n"},
		{"negative max retries", "rate = 0.05\n[faults]\nretry_timeout = 100\nmax_retries = -2\n"},
		{"port out of range", "rate = 0.05\ntopology = \"mesh_x1\"\n[[faults.link]]\nport = 99\nfrom = 10\nuntil = 20\n"},
		{"node out of range", "rate = 0.05\n[[faults.router]]\nnode = 64\nfrom = 10\nuntil = 20\n"},
		{"unbounded transient", "rate = 0.05\n[[faults.link]]\nport = 1\nfrom = 10\n"},
		{"permanent with until", "rate = 0.05\n[[faults.link]]\nport = 1\nfrom = 10\nuntil = 20\npermanent = true\n"},
		{"empty window", "rate = 0.05\n[[faults.link]]\nport = 1\nfrom = 20\nuntil = 20\n"},
		{"link window extra key", "rate = 0.05\n[[faults.link]]\nport = 1\nfrom = 10\nuntil = 20\nnode = 2\n"},
		{"router window permanent key", "rate = 0.05\n[[faults.router]]\nnode = 1\nfrom = 10\nuntil = 20\npermanent = true\n"},
		{"faults with closed cells", "[workload]\nmode = \"closed\"\n[faults]\nretry_timeout = 500\n"},
		{"faults with traces", "[workload]\ntrace = \"x.trace\"\n[faults]\nretry_timeout = 500\n"},
		{"windows not a list", "rate = 0.05\n[faults]\nlink = 3\n"},
		{"bad flow role", "[[flows]]\nnode = 1\nrate = 0.1\nrole = \"bystander\"\n"},
	}
	for _, c := range cases {
		if _, err := Parse([]byte(c.src), ".toml"); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
}

// TestVictimSlowdown checks the aggressor/victim machinery end to end:
// hidden victim-only reference cells stay hidden, the slowdown column is
// populated, and the whole pipeline is deterministic across worker counts.
func TestVictimSlowdown(t *testing.T) {
	sc, err := Parse([]byte(`
name = "dos"
topology = "mesh_x1"
qos = ["pvc", "no-qos"]
warmup = 500
measure = 4000

[[flows]]
node = 7
rate = 0.05
role = "victim"

[[flows]]
node = 1
rate = 0.5
role = "aggressor"

[[flows]]
node = 2
rate = 0.5
role = "aggressor"
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 || len(refIdx(g)) != 2 {
		t.Fatalf("grid %d cells, %d ref cells; want 2, 2", g.Size(), len(refIdx(g)))
	}
	results := runGrid(t, g, RunOpts{Workers: 1})
	if len(results) != 2 {
		t.Fatalf("got %d result rows, want 2 (reference cells must stay hidden)", len(results))
	}
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("row %d failed: %s", i, r.Error)
		}
		if r.VictimSlowdown <= 0 {
			t.Errorf("row %d (%s): victim slowdown %v, want > 0", i, r.Mode, r.VictimSlowdown)
		}
	}
	// Two aggressors saturating the victim's destination must slow the
	// victim down without QoS protection.
	if results[1].VictimSlowdown <= 1 {
		t.Errorf("no-qos victim slowdown %v, want > 1", results[1].VictimSlowdown)
	}
	again := runGrid(t, g, RunOpts{Workers: 4})
	for i := range again {
		// Wall-clock is legitimately non-deterministic across runs.
		results[i].Wall, again[i].Wall = 0, 0
	}
	if !reflect.DeepEqual(results, again) {
		t.Error("victim-slowdown sweep differs across worker counts")
	}
}

// TestDegrade pins the degradation sweep: every faulted point joins its
// fault-free baseline, inflation ratios come out positive, and a healthy
// scenario is rejected outright.
func TestDegrade(t *testing.T) {
	sc, err := Parse([]byte(`
name = "degraded"
topology = "mesh_x1"
qos = ["pvc", "no-qos"]
rate = 0.05
warmup = 500
measure = 6000

[faults]
retry_timeout = 400
max_retries = 6

[[faults.link]]
port = 3
from = 1000
until = 3000
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := Degrade(context.Background(), sc, DurableOpts{RunOpts: RunOpts{Workers: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// 2 QoS modes × 1 of everything else: one row per faulted grid point.
	if len(rows) != 2 {
		t.Fatalf("got %d degradation rows, want 2", len(rows))
	}
	for i, r := range rows {
		if r.Error != "" {
			t.Fatalf("row %d failed: %s", i, r.Error)
		}
		if r.DeliveredFraction <= 0 || r.DeliveredFraction > 1 {
			t.Errorf("row %d delivered fraction %v", i, r.DeliveredFraction)
		}
		if r.BaseMeanLatency <= 0 || r.BaseP99Latency <= 0 {
			t.Errorf("row %d missing baseline join: %+v", i, r)
		}
		if r.MeanInflation <= 0 || r.P99Inflation <= 0 {
			t.Errorf("row %d inflation %v / %v, want > 0", i, r.MeanInflation, r.P99Inflation)
		}
	}
	const degradeHeader = "scenario,pattern,topology,qos,seed,rate,retry_timeout,max_retries," +
		"delivered_fraction,retries,drops,victim_slowdown," +
		"mean_latency_cycles,base_mean_latency_cycles,mean_inflation," +
		"p99_latency_cycles,base_p99_latency_cycles,p99_inflation,error\n"
	if out := DegradeCSV(sc.Name, rows); !strings.HasPrefix(out, degradeHeader) || strings.Count(out, "\n") != 1+len(rows) {
		t.Errorf("CSV is not the header and one line a row:\n%s", out)
	}
	if out := RenderDegrade(sc.Name, rows); !strings.Contains(out, "Degradation sweep") {
		t.Error("render misses title")
	}

	sc.FaultWindows = nil
	if _, err := Degrade(context.Background(), sc, DurableOpts{}); err == nil {
		t.Error("degrade accepted a scenario without fault windows")
	}
}

// TestFailedCellReportsError wedges a cell (permanent router stall with a
// watchdog armed) and checks the failure surfaces as a row-level error
// instead of a dead sweep.
func TestFailedCellReportsError(t *testing.T) {
	sc, err := Parse([]byte(`
name = "wedged"
topology = "mesh_x1"
rate = 0.05
warmup = 0
measure = 6000

[faults]
watchdog_cycles = 1500

[[faults.router]]
node = 3
from = 500
`), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	results := runGrid(t, g, RunOpts{Workers: 1})
	if len(results) != 1 {
		t.Fatalf("got %d rows, want 1", len(results))
	}
	r := results[0]
	if r.Error == "" {
		t.Fatal("wedged cell produced no error")
	}
	if !strings.Contains(r.Error, "no forward progress") {
		t.Errorf("error %q does not name the watchdog trip", r.Error)
	}
	if r.Delivered != 0 || r.DeliveredFraction != 0 {
		t.Errorf("failed row carries metrics: %+v", r)
	}
	if out := CSV(sc.Name, results); !strings.Contains(out, "no forward progress") {
		t.Error("CSV drops the error column")
	}
	if out := render(sc.Name, results); !strings.Contains(out, "FAILED") {
		t.Error("the table does not mark the failed row")
	}
}
