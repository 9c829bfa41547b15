package scenario

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"os"
	"slices"
	"strings"
	"testing"

	"tanoq/internal/network"
)

var updateRows = flag.Bool("update", false, "rewrite testdata/rows.golden from this tree")

const rowsGolden = "testdata/rows.golden"

// goldenCells are one tiny cell of each workload kind, each chosen so
// that the row columns only its kind computes are non-zero: recovery
// traffic on a faulted open cell, the victim slowdown of a flows cell
// (through its hidden reference cell), the round trips of a closed cell,
// and a replayed trace. fingerprints.golden pins the engine's delivery
// counts; these rows pin what the scenario layer derives from a run.
var goldenCells = []struct {
	name, toml string
	covers     func(r *Result) bool
}{
	{"open-recovery", `
pattern = "uniform"
topology = "mesh_x1"
rate = 0.05
warmup = 200
measure = 1500
[faults]
retry_timeout = 200
[[faults.link]]
port = 3
from = 300
until = 700
`, func(r *Result) bool { return r.Retries > 0 && r.MeanRecovery > 0 }},
	{"flows-victim", `
topology = "mesh_x1"
qos = "no-qos"
warmup = 300
measure = 1500
[[flows]]
node = 1
rate = 0.05
dest = 7
role = "victim"
[[flows]]
node = 2
rate = 0.9
dest = 7
[[flows]]
node = 3
rate = 0.9
dest = 7
`, func(r *Result) bool { return r.VictimSlowdown > 1 }},
	{"closed", `
pattern = "uniform"
topology = "mesh_x1"
warmup = 200
measure = 1500
[workload]
mode = "closed"
outstanding = 4
think_time = 10
`, func(r *Result) bool { return r.Completed > 0 && r.MeanRTT > 0 && r.P99RTT > 0 }},
	{"replay", `
topology = "mesh_x1"
warmup = 200
measure = 800
[workload]
trace = "../../examples/traces/uniform-mesh_x1.trace"
`, func(r *Result) bool { return r.Delivered > 0 && strings.HasPrefix(r.Workload, "replay:") }},
}

// goldenRowsCSV runs the golden cells and renders their rows as CSV
// without the wall-clock columns.
func goldenRowsCSV(t *testing.T) string {
	var b strings.Builder
	for i, c := range goldenCells {
		rows := runGrid(t, gridOf(t, c.toml), RunOpts{Workers: 1})
		if len(rows) != 1 || rows[0].Error != "" || !c.covers(&rows[0]) {
			t.Fatalf("%s: golden cell does not exercise its kind's columns: %+v", c.name, rows)
		}
		csv := CSV(c.name, rows)
		if i > 0 {
			csv = csv[strings.IndexByte(csv, '\n')+1:]
		}
		b.WriteString(csv)
	}
	var out strings.Builder
	var drop []int
	for n, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		if strings.Contains(line, `"`) {
			t.Fatalf("quoted CSV field in %q", line)
		}
		cols := strings.Split(line, ",")
		if n == 0 {
			drop = []int{slices.Index(cols, "wall_ms"), slices.Index(cols, "cycles_per_sec")}
		}
		for i := len(drop) - 1; i >= 0; i-- {
			cols = slices.Delete(cols, drop[i], drop[i]+1)
		}
		out.WriteString(strings.Join(cols, ",") + "\n")
	}
	return out.String()
}

// TestRowsGolden pins every row column the scenario layer computes, one
// cell per workload kind. A change that moves it re-records the file with
// `go test -run RowsGolden ./internal/scenario -update` and sets
// network.ModelVersion to the new hash (TestModelVersionPinsGoldens).
func TestRowsGolden(t *testing.T) {
	got := goldenRowsCSV(t)
	if *updateRows {
		if err := os.WriteFile(rowsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", rowsGolden)
	}
	want, err := os.ReadFile(rowsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("rows moved from %s:\ngot:\n%s\nwant:\n%s", rowsGolden, got, want)
	}
}

// TestModelVersionPinsGoldens holds network.ModelVersion to the SHA-256
// of the engine's fingerprints.golden followed by rows.golden, so neither
// can be re-recorded without retiring every cached row.
func TestModelVersionPinsGoldens(t *testing.T) {
	h := sha256.New()
	for _, path := range []string{"../network/testdata/fingerprints.golden", rowsGolden} {
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(blob)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != network.ModelVersion {
		t.Errorf("network.ModelVersion is %q but the goldens hash to %q: a change that re-records either golden sets ModelVersion to the new hash",
			network.ModelVersion, got)
	}
}
