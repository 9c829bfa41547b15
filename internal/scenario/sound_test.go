package scenario

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/store"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// soundBases are one tiny cell per workload kind. Every perturbation is
// tried on each; the flows base's victim adds victim-ref cells, and it
// carries the fault schedule (the open base stays fault-free so that a
// closed mode can join it). The open and closed bases sit on the hotspot
// pattern so that weights are a valid perturbation of both.
var soundBases = []struct{ name, toml string }{
	{"open", `
pattern = "hotspot"
topology = "mesh_x1"
qos = "pvc"
rate = 0.05
warmup = 100
measure = 400
[burst]
mean_on = 50
mean_off = 150
`},
	{"flows", `
topology = "mesh_x1"
qos = "no-qos"
seed = 7
warmup = 100
measure = 400
[[flows]]
node = 1
rate = 0.05
dest = 7
role = "victim"
[[flows]]
node = 2
rate = 0.6
dest = 7
role = "aggressor"
[faults]
retry_timeout = 300
[[faults.link]]
port = 3
from = 150
until = 250
[[faults.router]]
node = 2
from = 200
until = 260
`},
	{"closed", `
pattern = "hotspot"
topology = "mesh_x1"
qos = "pvc"
seed = 7
warmup = 100
measure = 400
[workload]
mode = "closed"
outstanding = 4
think_time = 2
`},
	{"replay", `
topology = "mesh_x1"
qos = "pvc"
warmup = 200
measure = 800
[workload]
trace = "../../examples/traces/uniform-mesh_x1.trace"
`},
}

// neverKeyed are the rows that cannot change a result: the display name
// and the [run] and [telemetry] tables. They, and only they, read no
// cell.
var neverKeyed = []string{"name", "run", "telemetry"}

func isNeverKeyed(key string) bool {
	for _, k := range neverKeyed {
		if key == k || strings.HasPrefix(key, k+".") {
			return true
		}
	}
	return false
}

// setValues is the value pool perturbations draw from, in -set syntax:
// numbers of every shape the table's keys take, every name the simulator
// knows (plus extra), and lists of both. Most values are wrong for most
// keys; the decoder and Validate reject those, and what is left changes
// the key's value.
func setValues(extra ...string) []string {
	vals := []string{"0", "1", "2", "3", "4", "7", "16", "50", "300", "600", "0.02", "0.3", "0.9", "2.5", "-1",
		"true", "false", "[]", "[1, 2]", "[0.02, 0.3]", "[50, 400]", "[1, 8, 1, 1, 1, 1, 1, 1]",
		`["open", "closed"]`, `["uniform", "hotspot"]`}
	names := append(traffic.PatternNames(), "all", "open", "closed", "victim", "aggressor")
	for _, k := range topology.Kinds() {
		names = append(names, k.String())
	}
	for _, m := range qos.Modes() {
		names = append(names, m.String())
	}
	names = append(append(names, telemetry.KnownSeries()...), extra...)
	for _, n := range names {
		vals = append(vals, strconv.Quote(n))
	}
	return vals
}

// perturbations are the -set expressions that perturb one table row: its
// key — an array's first element for an element row, the whole array for
// an array row — set to each pooled value.
func perturbations(f *field, vals []string) []string {
	key := strings.TrimSuffix(strings.ReplaceAll(f.key, "[].", "[0]."), "[]")
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = key + "=" + v
	}
	return out
}

// soundRow is what a cache key stands for: a visible cell's row without
// its wall-clock columns, attempts and timeline, or a reference cell's
// victim baseline.
type soundRow struct {
	res  Result
	base float64
}

// soundRun simulates a grid and returns each cell's key and soundRow,
// visible cells first, then the hidden reference cells.
func soundRun(t *testing.T, g *Grid) ([]string, []soundRow) {
	t.Helper()
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	var rows []soundRow
	for _, r := range runGrid(t, g, RunOpts{Workers: 1}) {
		r.Wall, r.Attempts, r.Timeline = 0, 0, nil
		rows = append(rows, soundRow{res: r})
	}
	victims := g.Scenario.victimFlows()
	refs := refIdx(g)
	res := runner.RunEachCtx(context.Background(), len(refs), func(j int) runner.Cell { return g.Cell(refs[j]) },
		runner.Options{Workers: 1})
	for j, r := range res {
		rows = append(rows, soundRow{base: victimMeanLatency(r.Stats, victims)})
		keys = append(keys, store.KeyOf(g.canonOf(nil, refs[j], nil)))
	}
	return keys, rows
}

// TestCacheKeySound is the differential check of the field table's reads
// sets. For every row it perturbs that one key through the -set grammar
// on each base cell, runs both grids, and requires that two cells with
// one key have one row: a row that forgets a kind that reads it gives
// that kind's cells the base's key with a different row. Equal rows under
// different keys are aliasing — cache space, not correctness — and are
// logged. Rows come from the table, so a new key is covered without being
// listed here; the test fails for a row that no pooled value perturbs,
// unless it is one of the never-keyed rows. A row no value can change
// alone (a link window's permanent flag moves with its until) is paired
// with a sibling's value; an array row is perturbed through its elements,
// whose lines it opens.
func TestCacheKeySound(t *testing.T) {
	alt := filepath.Join(t.TempDir(), "alt.trace")
	writeAltTrace(t, alt)
	vals := setValues(alt)
	perturbed := map[string]bool{}
	for _, f := range fields {
		if (f.reads == 0) != isNeverKeyed(f.key) {
			t.Errorf("row %s: reads set %b, but never-keyed is %v", f.key, f.reads, isNeverKeyed(f.key))
		}
	}
	var checks []func(exprs ...string) bool
	for _, b := range soundBases {
		resolve := func(exprs ...string) *Scenario {
			sc, _, err := Resolve(BlobLayer(b.name, []byte(b.toml), ".toml"), SetLayer(exprs...))
			if err != nil {
				return nil
			}
			return sc
		}
		baseSc := resolve()
		if baseSc == nil {
			t.Fatalf("%s base does not resolve", b.name)
		}
		baseGrid, err := baseSc.Grid()
		if err != nil {
			t.Fatal(err)
		}
		baseKeys, baseRows := soundRun(t, baseGrid)
		byKey := map[string]soundRow{}
		for i, k := range baseKeys {
			byKey[k] = baseRows[i]
		}
		// A check runs a perturbation whose first expression changes the
		// scenario beyond what the rest do, and reports whether it did.
		checks = append(checks, func(exprs ...string) bool {
			sc, without := resolve(exprs...), baseSc
			if len(exprs) > 1 {
				without = resolve(exprs[1:]...)
			}
			if sc == nil || reflect.DeepEqual(sc, without) {
				return false
			}
			g, err := sc.Grid()
			if err != nil {
				return true // a trace recorded on another column
			}
			keys, rows := soundRun(t, g)
			logged := false
			for j, k := range keys {
				if want, ok := byKey[k]; ok && rows[j] != want {
					t.Errorf("%s base, -set %q: cell %d keeps a base cell's key, but its row differs:\n%+v\n%+v",
						b.name, exprs, j, rows[j], want)
				}
				if !logged && len(keys) == len(baseKeys) && k != baseKeys[j] && rows[j] == baseRows[j] {
					t.Logf("aliasing: %s base, -set %q: cell %d has a new key and the base's row", b.name, exprs, j)
					logged = true
				}
			}
			return true
		})
	}
	for i := range fields {
		f := &fields[i]
		for _, check := range checks {
			ran := 0
			for _, expr := range perturbations(f, vals) {
				if check(expr) {
					perturbed[f.key] = true
					if ran++; ran == 2 {
						break
					}
				}
			}
		}
	}
	for i := range fields {
		f := &fields[i]
		parent, _ := splitKey(f.key)
		for j := range fields {
			if s := &fields[j]; !perturbed[f.key] && s != f && strings.HasPrefix(s.key, parent+".") {
				perturbed[f.key] = tryPairs(checks, perturbations(f, vals), perturbations(s, vals))
			}
		}
	}
	for _, f := range fields {
		array, _, inArray := strings.Cut(f.key, "[]")
		if inArray && perturbed[f.key] {
			perturbed[array+"[]"] = true
		}
	}
	for _, f := range fields {
		if !perturbed[f.key] && !isNeverKeyed(f.key) {
			t.Errorf("row %s: no pooled value perturbs it on any base; add one to setValues", f.key)
		}
	}
}

// tryPairs runs each expression paired with each sibling expression on
// every base until one pair perturbs the first key.
func tryPairs(checks []func(...string) bool, exprs, siblings []string) bool {
	for _, check := range checks {
		for _, other := range siblings {
			for _, expr := range exprs {
				if check(expr, other) {
					return true
				}
			}
		}
	}
	return false
}

// writeAltTrace records a trace for the replay base's column that differs
// from the committed one in its injection stream, not just its header.
func writeAltTrace(t *testing.T, path string) {
	t.Helper()
	rec := recordRun(t, `{"rates":[0.1],"pattern":"tornado","topologies":["mesh_x1"],"warmup":200,"measure":800}`)
	tr := rec.Trace(workload.TraceHeader{Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 42, Warmup: 200, Measure: 800})
	if err := os.WriteFile(path, tr.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
}
