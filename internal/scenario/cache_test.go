package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/store"
	"tanoq/internal/topology"
	"tanoq/internal/workload"
)

// gridOf parses a TOML scenario and expands its grid.
func gridOf(t *testing.T, toml string) *Grid {
	t.Helper()
	sc, err := Parse([]byte(toml), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	g, err := sc.Grid()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runGrid runs g through RunDurable without a store — no keys, no
// cache, every cell executed — and returns its rows.
func runGrid(t *testing.T, g *Grid, opts RunOpts) []Result {
	t.Helper()
	rep, err := g.RunDurable(context.Background(), DurableOpts{RunOpts: opts})
	if err != nil {
		t.Fatal(err)
	}
	return rep.Results
}

// skipOff makes every cell of g, hidden reference cells included, tick
// through each cycle instead of skipping idle windows
// (network.Config.DisableIdleSkip), and returns g.
func skipOff(g *Grid) *Grid {
	g.tick = true
	return g
}

// refIdx lists the cell indices of g's hidden victim-reference cells.
func refIdx(g *Grid) []int {
	var out []int
	for i := g.Size(); i < len(g.pts); i++ {
		out = append(out, i)
	}
	return out
}

// zeroWall returns a copy of the rows with the wall-clock columns — the
// one legitimately non-deterministic part of a result — cleared, so
// separately-executed runs can be compared bit-for-bit.
func zeroWall(rs []Result) []Result {
	out := append([]Result(nil), rs...)
	for i := range out {
		out[i].Wall = 0
	}
	return out
}

// keysOf returns the grid's cache keys as a set.
func keysOf(t *testing.T, toml string) map[string]bool {
	t.Helper()
	keys, err := gridOf(t, toml).Keys()
	if err != nil {
		t.Fatal(err)
	}
	set := make(map[string]bool, len(keys))
	for _, k := range keys {
		set[k] = true
	}
	return set
}

// TestRunTableDecoding pins the [run] table: the knobs decode into
// Deadline/Retries/Backoff/Cache (with `retries = 0` mapping to the
// runner's explicit no-retries sentinel), and nonsense — non-positive
// deadlines, negative retries or backoff, unknown keys, non-table
// values — is rejected at parse time.
func TestRunTableDecoding(t *testing.T) {
	sc, err := Parse([]byte("rate = 0.05\n[run]\ndeadline_ms = 60000\nretries = 2\nbackoff_ms = 250\ncache = true\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Deadline != 60*time.Second || sc.Retries != 2 || sc.Backoff != 250*time.Millisecond || !sc.Cache {
		t.Fatalf("run table decoded wrong: deadline %v retries %d backoff %v cache %v",
			sc.Deadline, sc.Retries, sc.Backoff, sc.Cache)
	}
	sc, err = Parse([]byte("rate = 0.05\n[run]\nretries = 0\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Retries != -1 {
		t.Errorf("explicit retries = 0 decoded to %d, want the -1 no-retries sentinel", sc.Retries)
	}
	sc, err = Parse([]byte("rate = 0.05\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Deadline != 0 || sc.Retries != 0 || sc.Backoff != 0 || sc.Cache {
		t.Errorf("absent run table left non-zero knobs: %+v", sc)
	}
	for name, src := range map[string]string{
		"zero deadline":     "rate = 0.05\n[run]\ndeadline_ms = 0\n",
		"negative deadline": "rate = 0.05\n[run]\ndeadline_ms = -5\n",
		"negative retries":  "rate = 0.05\n[run]\nretries = -1\n",
		"negative backoff":  "rate = 0.05\n[run]\nbackoff_ms = -10\n",
		"unknown key":       "rate = 0.05\n[run]\nwall_clock = 9\n",
		"not a table":       "rate = 0.05\nrun = 3\n",
	} {
		if _, err := Parse([]byte(src), ".toml"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

const cacheBase = `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
rates = [0.03]
seeds = [42]
warmup = 200
measure = 800
`

// TestCacheKeyStability is the table-driven key contract over the full
// cell schema: re-encoding the same semantics — any file-key order, any
// display name, any execution-only knob — produces identical keys, and
// every semantic change produces disjoint ones.
func TestCacheKeyStability(t *testing.T) {
	base := keysOf(t, cacheBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"key order":  {"measure = 800\nwarmup = 200\nseeds = [42]\nrates = [0.03]\nqos = [\"pvc\"]\ntopology = \"mesh_x1\"\npattern = \"uniform\"\n", true},
		"name":       {cacheBase + "name = \"renamed\"\n", true},
		"run knobs":  {cacheBase + "[run]\ndeadline_ms = 60000\nretries = 2\nbackoff_ms = 10\ncache = true\n", true},
		"rate":       {strings.Replace(cacheBase, "0.03", "0.04", 1), false},
		"seed":       {strings.Replace(cacheBase, "[42]", "[43]", 1), false},
		"topology":   {strings.Replace(cacheBase, "mesh_x1", "mecs", 1), false},
		"qos mode":   {strings.Replace(cacheBase, `"pvc"`, `"no-qos"`, 1), false},
		"pattern":    {strings.Replace(cacheBase, "uniform", "transpose", 1), false},
		"warmup":     {strings.Replace(cacheBase, "warmup = 200", "warmup = 300", 1), false},
		"measure":    {strings.Replace(cacheBase, "measure = 800", "measure = 900", 1), false},
		"stop_at":    {cacheBase + "stop_at = 600\n", false},
		"burst":      {cacheBase + "[burst]\nmean_on = 50\nmean_off = 150\n", false},
		"req frac":   {cacheBase + "request_fraction = 0.9\n", false},
		"frame":      {cacheBase + "frame_cycles = 4096\n", false},
		"window":     {cacheBase + "window_packets = 8\n", false},
		"quantum":    {cacheBase + "quantum_flits = 16\n", false},
		"margin":     {cacheBase + "margin_classes = 2\n", false},
		"watchdog":   {cacheBase + "[faults]\nwatchdog_cycles = 5000\n", false},
		"recovery":   {cacheBase + "[faults]\nretry_timeout = 300\nmax_retries = 2\n", false},
		"fault win":  {cacheBase + "[faults]\n[[faults.router]]\nnode = 3\nfrom = 100\nuntil = 200\n", false},
		"hs weights": {strings.Replace(cacheBase, `"uniform"`, `"hotspot"`, 1) + "hotspot_weights = [1, 2, 1, 1, 1, 1, 1, 1]\n", false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same {
				if !reflect.DeepEqual(got, base) {
					t.Errorf("expected identical keys, got %v vs %v", got, base)
				}
				return
			}
			for k := range got {
				if base[k] {
					t.Errorf("semantic change still maps to base key %s", k)
				}
			}
		})
	}
}

// TestCacheKeyFlowAndClosedAxes extends the stability table to the
// flows and closed-loop workload classes.
func TestCacheKeyFlowAndClosedAxes(t *testing.T) {
	flowBase := `
topology = "mesh_x1"
qos = ["pvc"]
seeds = [7]
warmup = 200
measure = 800
[[flows]]
node = 1
rate = 0.2
dest = 5
role = "victim"
[[flows]]
node = 2
rate = 0.5
dest = 5
role = "aggressor"
`
	base := keysOf(t, flowBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"same flows":   {flowBase, true},
		"flow rate":    {strings.Replace(flowBase, "0.5", "0.6", 1), false},
		"flow dest":    {strings.Replace(flowBase, "dest = 5\nrole = \"aggressor\"", "dest = 6\nrole = \"aggressor\"", 1), false},
		"flow role":    {strings.Replace(flowBase, `"aggressor"`, `"victim"`, 1), false},
		"role dropped": {strings.Replace(flowBase, "role = \"victim\"\n", "", 1), false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same != reflect.DeepEqual(got, base) {
				t.Errorf("same=%v violated", tc.same)
			}
		})
	}

	closedBase := `
pattern = "hotspot"
topology = "mesh_x1"
qos = ["pvc"]
seeds = [7]
warmup = 200
measure = 800
[workload]
mode = "closed"
outstanding = [4]
think_times = [0]
`
	cb := keysOf(t, closedBase)
	for name, tc := range map[string]struct {
		toml string
		same bool
	}{
		"same closed":  {closedBase, true},
		"outstanding":  {strings.Replace(closedBase, "[4]", "[8]", 1), false},
		"think":        {strings.Replace(closedBase, "think_times = [0]", "think_times = [50]", 1), false},
		"packet shape": {closedBase + "request_flits = 4\nreply_flits = 1\n", false},
		"hotspot weights": {strings.Replace(closedBase, "[workload]",
			"hotspot_weights = [4, 1, 1, 1, 1, 1, 1, 1]\n[workload]", 1), false},
	} {
		t.Run(name, func(t *testing.T) {
			got := keysOf(t, tc.toml)
			if tc.same != reflect.DeepEqual(got, cb) {
				t.Errorf("same=%v violated", tc.same)
			}
		})
	}

	// A closed cell and an open cell of the same pattern/seed must never
	// collide.
	for k := range cb {
		if base[k] {
			t.Error("closed and flows cells share a key")
		}
	}
}

// TestCacheKeyTraceDigest pins the replay rule: a cell's key follows the
// trace file's *content*, so editing a trace in place retires its rows.
// Only a cached run digests the file: without a store RunDurable keys
// nothing, so a grid expanded before the file is deleted still runs.
func TestCacheKeyTraceDigest(t *testing.T) {
	dir := t.TempDir()
	rec := recordRun(t)
	tr := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 42, Warmup: 200, Measure: 800,
	})
	path := filepath.Join(dir, "t.trace")
	if err := os.WriteFile(path, tr.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	scPath := filepath.Join(dir, "replay.toml")
	if err := os.WriteFile(scPath, []byte(
		"topology = \"mesh_x1\"\nqos = [\"pvc\"]\nwarmup = 200\nmeasure = 800\n[workload]\ntrace = \"t.trace\"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	grid := func() *Grid {
		sc, err := loadFile(scPath)
		if err != nil {
			t.Fatal(err)
		}
		g, err := sc.Grid()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	load := func() []string {
		keys, err := grid().Keys()
		if err != nil {
			t.Fatal(err)
		}
		return keys
	}
	k1 := load()
	if k2 := load(); !reflect.DeepEqual(k1, k2) {
		t.Fatal("identical trace produced different keys")
	}
	// Overwrite with a valid but different capture (the header seed
	// differs): same path, different content, different keys.
	tr2 := rec.Trace(workload.TraceHeader{
		Nodes: topology.ColumnNodes, Topology: "mesh_x1", QoS: "pvc",
		Seed: 43, Warmup: 200, Measure: 800,
	})
	if err := os.WriteFile(path, tr2.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	if k3 := load(); reflect.DeepEqual(k1, k3) {
		t.Fatal("edited trace kept its cache keys")
	}

	g := grid()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if rows := runGrid(t, g, RunOpts{Workers: 1}); rows[0].Error != "" || rows[0].Delivered == 0 {
		t.Fatalf("uncached replay after the trace was deleted: %+v", rows[0])
	}
}

// durableGrid is a small two-cell grid for lifecycle tests.
const durableToml = `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
rates = [0.02, 0.05]
seeds = [42]
warmup = 200
measure = 800
`

// TestRunDurableCacheLifecycle is the memoization contract: a first run
// executes everything, a re-run against the same store executes nothing
// and returns bit-identical rows. The [telemetry] input pins that a
// timeline — carried by executed rows only — is not part of what the
// cache serves or what verification compares.
func TestRunDurableCacheLifecycle(t *testing.T) {
	for name, src := range map[string]string{
		"plain":     durableToml,
		"telemetry": durableToml + "[telemetry]\ninterval = 200\n",
	} {
		t.Run(name, func(t *testing.T) {
			st, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			g := gridOf(t, src)
			plain := runGrid(t, g, RunOpts{Workers: 1})

			first, err := gridOf(t, src).RunDurable(context.Background(), DurableOpts{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if first.Hits != 0 || first.Executed != g.Size() || first.Interrupted {
				t.Fatalf("first run: %+v, want all executed", first)
			}
			if !reflect.DeepEqual(zeroWall(first.Results), zeroWall(plain)) {
				t.Fatalf("cached run diverged from the uncached one:\n%+v\n%+v", first.Results, plain)
			}

			second, err := gridOf(t, src).RunDurable(context.Background(), DurableOpts{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if second.Hits != g.Size() || second.Executed != 0 {
				t.Fatalf("re-run: hits %d executed %d, want %d/0", second.Hits, second.Executed, g.Size())
			}
			if !reflect.DeepEqual(zeroWall(second.Results), stripTimelines(plain)) {
				t.Fatal("cached rows diverge from executed rows")
			}

			// The verify pass re-runs hits and must confirm them.
			verified, err := gridOf(t, src).RunDurable(context.Background(),
				DurableOpts{Store: st, VerifySample: g.Size()})
			if err != nil {
				t.Fatal(err)
			}
			if verified.Verified != g.Size() || len(verified.VerifyBad) != 0 {
				t.Fatalf("verify pass: %d verified, bad %v", verified.Verified, verified.VerifyBad)
			}
		})
	}
}

// TestRunDurableResumeCompletesPartialCache pins resume: with only part
// of the grid cached (an interrupted earlier run), a resumed sweep
// serves the cached rows, executes the rest, and the final table is
// bit-identical to a never-interrupted run.
func TestRunDurableResumeCompletesPartialCache(t *testing.T) {
	stDir := t.TempDir()
	st, err := store.Open(stDir)
	if err != nil {
		t.Fatal(err)
	}
	journal, err := store.OpenJournal(filepath.Join(stDir, "journal"))
	if err != nil {
		t.Fatal(err)
	}
	defer journal.Close()

	// "Interrupted" first pass: only the first rate is swept, so the
	// store holds half the full grid.
	partial := strings.Replace(durableToml, "[0.02, 0.05]", "[0.02]", 1)
	if _, err := gridOf(t, partial).RunDurable(context.Background(),
		DurableOpts{Store: st, Journal: journal}); err != nil {
		t.Fatal(err)
	}
	if journal.Len() != 1 {
		t.Fatalf("journal holds %d keys after partial run, want 1", journal.Len())
	}

	full := gridOf(t, durableToml)
	rep, err := full.RunDurable(context.Background(), DurableOpts{Store: st, Journal: journal})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hits != 1 || rep.Executed != 1 {
		t.Fatalf("resume: hits %d executed %d, want 1/1", rep.Hits, rep.Executed)
	}
	uninterrupted := runGrid(t, gridOf(t, durableToml), RunOpts{Workers: 1})
	resumed, fresh := zeroWall(rep.Results), zeroWall(uninterrupted)
	if !reflect.DeepEqual(resumed, fresh) {
		t.Fatalf("resumed table diverges from uninterrupted run:\n%+v\n%+v", rep.Results, uninterrupted)
	}
	// The rendered artifacts must be byte-identical too — the CLI-level
	// resume contract (modulo the wall-clock columns, which record each
	// run's own elapsed time).
	if render("x", resumed) != render("x", fresh) ||
		CSV("x", resumed) != CSV("x", fresh) {
		t.Error("rendered output differs between resumed and uninterrupted runs")
	}
	if journal.Len() != 2 {
		t.Errorf("journal holds %d keys after resume, want 2", journal.Len())
	}
}

// TestRunDurableCancellation pins graceful cancellation: a cancelled
// sweep returns rows marked skipped and reports itself interrupted.
func TestRunDurableCancellation(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := gridOf(t, durableToml)
	rep, err := g.RunDurable(ctx, DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Interrupted || rep.Skipped != g.Size() {
		t.Fatalf("cancelled sweep: %+v, want all skipped", rep)
	}
	for _, r := range rep.Results {
		if r.Error != skippedError || r.Attempts != 0 {
			t.Errorf("skipped row: %+v", r)
		}
	}
	// Rendering marks them FAILED rather than printing zero metrics.
	if out := render("x", rep.Results); !strings.Contains(out, "FAILED") || !strings.Contains(out, "cancelled") {
		t.Errorf("skipped rows render without an interrupted marker:\n%s", out)
	}
}

// TestRunDurableVictimBaselineCached pins the reference-cell contract:
// victim-slowdown rows cache and re-serve without re-running the hidden
// reference cells, and a cached run matches an uncached one exactly.
func TestRunDurableVictimBaselineCached(t *testing.T) {
	toml := `
topology = "mesh_x1"
qos = ["no-qos"]
seeds = [42]
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
`
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	plain := runGrid(t, gridOf(t, toml), RunOpts{Workers: 1})
	if plain[0].VictimSlowdown <= 1 {
		t.Fatalf("scenario does not exercise the slowdown column: %+v", plain[0])
	}
	first, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(zeroWall(first.Results), zeroWall(plain)) {
		t.Fatal("cached victim run diverges from the uncached one")
	}
	second, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if second.Executed != 0 || second.Hits != 1 {
		t.Fatalf("victim re-run executed %d cells, want 0", second.Executed)
	}
	if !reflect.DeepEqual(zeroWall(second.Results), zeroWall(plain)) {
		t.Fatal("cached victim rows diverge")
	}
}

// TestRunDurableVerifyCatchesCorruption pins -cache-verify: a tampered
// cache entry is detected by the verification re-run.
func TestRunDurableVerifyCatchesCorruption(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, durableToml)
	if _, err := g.RunDurable(context.Background(), DurableOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	// Tamper with the first cell's payload: valid envelope, wrong data.
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	blob, ok := st.Get(keys[0])
	if !ok {
		t.Fatal("entry missing after run")
	}
	var row payload
	if err := json.Unmarshal(blob, &row); err != nil {
		t.Fatal(err)
	}
	row.MeanLatency += 1000
	forged, _ := json.Marshal(row)
	if err := st.Put(keys[0], forged); err != nil {
		t.Fatal(err)
	}

	rep, err := gridOf(t, durableToml).RunDurable(context.Background(),
		DurableOpts{Store: st, VerifySample: g.Size()})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VerifyBad) != 1 || rep.Verified != g.Size()-1 {
		t.Fatalf("verification missed the forged entry: verified %d bad %v", rep.Verified, rep.VerifyBad)
	}
}

// TestRunDurableNullPayloadIsAMiss pins the store's safety contract at
// the sweep level: an entry whose payload is null — valid JSON, so Put
// would store it — is a miss and the cell is executed, never served as
// an all-zero row.
func TestRunDurableNullPayloadIsAMiss(t *testing.T) {
	stDir := t.TempDir()
	st, err := store.Open(stDir)
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, durableToml)
	first, err := g.RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	entry := `{"format":"` + store.Format + `","key":"` + keys[0] + `","payload":null}` + "\n"
	if err := os.WriteFile(filepath.Join(stDir, "v1", keys[0][:2], keys[0]+".json"), []byte(entry), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := gridOf(t, durableToml).RunDurable(context.Background(), DurableOpts{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Executed != 1 || rep.Hits != g.Size()-1 {
		t.Fatalf("null-payload entry: executed %d hits %d, want 1/%d", rep.Executed, rep.Hits, g.Size()-1)
	}
	if !reflect.DeepEqual(zeroWall(rep.Results), zeroWall(first.Results)) {
		t.Fatalf("rows after a null-payload entry diverge:\n%+v\n%+v", rep.Results, first.Results)
	}
}

// goldenPayload is the row testdata/payload.golden holds.
var goldenPayload = payload{
	metrics: metrics{
		MeanLatency: 41.27734375, P99Latency: 163, Accepted: 0.3141592653589793,
		PreemptionPct: 3.5e-07, Delivered: 10513, End: 18000,
		TputMinPct: 87.5, TputMaxPct: 112.25, TputStdDevPct: 6.0103,
		Completed: 2048, MeanRTT: 96.125, P99RTT: 311,
		DeliveredFraction: 0.9990234375, Retries: 17, Drops: 3,
		MeanRecovery: 1234.5, VictimSlowdown: 1.0000000000000002,
	},
	Attempts: 2, Wall: 123456789,
}

// TestPayloadGoldenRoundTrips pins the bytes of a cache entry's payload:
// testdata/payload.golden is one row, every field non-zero, as the
// format's first writer stored it. The codec decodes it field by field
// and re-encodes it to the same bytes, so a store filled under this
// format serves rows to every build that reads it; encoding/json, unknown
// fields disallowed, reads the same row and writes the same bytes, so the
// codec's field list and the payload's json tags agree.
func TestPayloadGoldenRoundTrips(t *testing.T) {
	blob, err := os.ReadFile("testdata/payload.golden")
	if err != nil {
		t.Fatal(err)
	}
	got, ok := payloadCodec.decode(blob)
	if !ok || got != goldenPayload {
		t.Errorf("golden payload decodes to\n%+v, %v\nwant\n%+v", got, ok, goldenPayload)
	}
	if again, err := payloadCodec.encode(nil, &got); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("golden payload re-encodes to\n%s (%v)\nwant\n%s", again, err, blob)
	}

	dec := json.NewDecoder(bytes.NewReader(blob))
	dec.DisallowUnknownFields()
	var viaJSON payload
	if err := dec.Decode(&viaJSON); err != nil || viaJSON != goldenPayload {
		t.Errorf("encoding/json decodes the golden payload to\n%+v (%v)\nwant\n%+v", viaJSON, err, goldenPayload)
	}
	if again, err := json.Marshal(goldenPayload); err != nil || !bytes.Equal(again, blob) {
		t.Errorf("json.Marshal writes the golden row as\n%s (%v)\nwant\n%s", again, err, blob)
	}
	ref := refPayload{VictimMean: 41.27734375}
	viaCodec, err := refCodec.encode(nil, &ref)
	if viaMarshal, _ := json.Marshal(ref); err != nil || !bytes.Equal(viaCodec, viaMarshal) {
		t.Errorf("refCodec writes %s (%v), json.Marshal %s", viaCodec, err, viaMarshal)
	}
	if back, ok := refCodec.decode(viaCodec); !ok || back != ref {
		t.Errorf("refCodec reads its own %s as %+v, %v", viaCodec, back, ok)
	}
}

// TestEntryGoldenServesThroughCodec is the store's entry golden end to
// end: ../store/testdata/entry.golden, a whole entry as an earlier
// build's Put wrote it around testdata/payload.golden, is a hit that
// loads as the golden row, and the codec plus Put write it back byte for
// byte.
func TestEntryGoldenServesThroughCodec(t *testing.T) {
	golden, err := os.ReadFile("../store/testdata/entry.golden")
	if err != nil {
		t.Fatal(err)
	}
	key := store.KeyOf([]byte("payload.golden"))
	entryPath := func(dir string) string { return filepath.Join(dir, "v1", key[:2], key+".json") }
	oldDir := t.TempDir()
	old, err := store.Open(oldDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(entryPath(oldDir)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(entryPath(oldDir), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	row, ok := payloadCodec.load(old, key)
	if !ok || row != goldenPayload {
		t.Fatalf("golden entry loads as %+v, %v; want %+v", row, ok, goldenPayload)
	}
	newDir := t.TempDir()
	st, err := store.Open(newDir)
	if err != nil {
		t.Fatal(err)
	}
	if err := payloadCodec.put(st, key, &row); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(entryPath(newDir)); err != nil || !bytes.Equal(again, golden) {
		t.Fatalf("codec and Put write\n%s\nwant\n%s (%v)", again, golden, err)
	}
}

// TestPayloadDecodeIsStrict pins the decoder's one rule: it reads only
// the bytes the encoder writes. The golden payload with one edit is read
// only where the edit is itself the encoder's spelling.
func TestPayloadDecodeIsStrict(t *testing.T) {
	golden, err := os.ReadFile("testdata/payload.golden")
	if err != nil {
		t.Fatal(err)
	}
	edit := func(old, new string) []byte { return bytes.Replace(golden, []byte(old), []byte(new), 1) }
	for _, tc := range []struct {
		name string
		data []byte
		ok   bool
	}{
		{"golden", golden, true},
		{"exponent-form", edit("3.5e-7", "1e+21"), true},
		{"negative-zero", edit("3.5e-7", "-0"), true},
		{"padded-exponent", edit("3.5e-7", "3.5e-07"), false},
		{"unsigned-exponent", edit("3.5e-7", "1e21"), false},
		{"plain-small", edit("3.5e-7", "0.00000035"), false},
		{"plus-sign", edit(`"delivered":10513`, `"delivered":+10513`), false},
		{"float-integer", edit(`"delivered":10513`, `"delivered":10513.0`), false},
		{"integer-negative-zero", edit(`"drops":3`, `"drops":-0`), false},
		{"trailing-zero", edit("87.5", "87.50"), false},
		{"space", edit(`"end":18000`, `"end": 18000`), false},
		{"null-field", edit(`"drops":3`, `"drops":null`), false},
		{"reordered", edit(`"retries":17,"drops":3`, `"drops":3,"retries":17`), false},
		{"unknown-field", edit(`"wall_ns"`, `"x":1,"wall_ns"`), false},
		{"missing-field", edit(`"drops":3,`, ``), false},
		{"trailing-newline", append(bytes.Clone(golden), '\n'), false},
		{"truncated", golden[:len(golden)-1], false},
		{"null", []byte("null"), false},
		{"empty", nil, false},
	} {
		if _, ok := payloadCodec.decode(tc.data); ok != tc.ok {
			t.Errorf("%s: decode accepted = %v, want %v", tc.name, ok, tc.ok)
		}
	}
}

// TestCheckpointNamesNonFiniteField pins how a NaN or infinite metric
// fails its checkpoint: as encoding/json would refuse it, with an error
// naming the field, and with nothing stored.
func TestCheckpointNamesNonFiniteField(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := store.KeyOf([]byte("non-finite"))
	err = payloadCodec.put(st, key, &payload{metrics: metrics{MeanLatency: math.NaN()}})
	if err == nil || !strings.Contains(err.Error(), "mean_latency") || !strings.Contains(err.Error(), "NaN") {
		t.Errorf("NaN mean_latency: put error %v", err)
	}
	err = refCodec.put(st, key, &refPayload{VictimMean: math.Inf(1)})
	if err == nil || !strings.Contains(err.Error(), "victim_mean") || !strings.Contains(err.Error(), "+Inf") {
		t.Errorf("+Inf victim_mean: put error %v", err)
	}
	if _, ok := st.Get(key); ok {
		t.Error("a non-finite row was stored")
	}
}

// TestRunDurableWorkersInvariant pins the parallel hit path: keying and
// loading fan out over the sweep's workers, yet the rows, the hit and
// execution counts, and the cached OnCell events — all emitted in grid
// order, before any executed cell's of their chunk (this grid is one) —
// do not depend on the worker count, on a warm cache or on one with a
// third of its entries deleted.
func TestRunDurableWorkersInvariant(t *testing.T) {
	const toml = `
pattern = "uniform"
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
seeds = [42, 43]
warmup = 50
measure = 150
`
	stDir := t.TempDir()
	st, err := store.Open(stDir)
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, toml)
	if _, err := g.RunDurable(context.Background(), DurableOpts{Store: st}); err != nil {
		t.Fatal(err)
	}
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	n := g.Size()
	if n < 3*jobCells {
		t.Fatalf("%d cells make fewer than three jobs; the fan-out is not exercised", n)
	}
	for _, mixed := range []bool{false, true} {
		var want []Result
		var wantHits []int
		for _, workers := range []int{1, 2, 8} {
			if mixed {
				for i := 0; i < n; i += 3 {
					if err := os.Remove(filepath.Join(stDir, "v1", keys[i][:2], keys[i]+".json")); err != nil {
						t.Fatal(err)
					}
				}
			}
			var (
				mu       sync.Mutex
				hits     []int
				executed int
			)
			rep, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{
				RunOpts: RunOpts{Workers: workers, OnCell: func(ev CellEvent) {
					mu.Lock()
					defer mu.Unlock()
					if !ev.Cached {
						executed++
						return
					}
					if executed > 0 {
						t.Errorf("workers %d: cached event for cell %d after an executed one", workers, ev.Cell)
					}
					hits = append(hits, ev.Cell)
				}},
				Store: st,
			})
			if err != nil {
				t.Fatal(err)
			}
			wantExec := 0
			if mixed {
				wantExec = (n + 2) / 3
			}
			if rep.Executed != wantExec || rep.Hits != n-wantExec || executed != wantExec {
				t.Fatalf("mixed=%v workers %d: executed %d (%d events) hits %d, want %d/%d",
					mixed, workers, rep.Executed, executed, rep.Hits, wantExec, n-wantExec)
			}
			if !sort.IntsAreSorted(hits) || len(hits) != rep.Hits {
				t.Fatalf("mixed=%v workers %d: cached events %v, want %d in grid order", mixed, workers, hits, rep.Hits)
			}
			got := rep.Results
			if mixed {
				got = zeroWall(got) // executed rows carry their own run's wall clock
			}
			if want == nil {
				want, wantHits = got, hits
				continue
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(hits, wantHits) {
				t.Fatalf("mixed=%v: workers %d diverge from workers 1", mixed, workers)
			}
		}
	}
}

// TestCanonKeyIsWalkHash pins the key encoding to its definition: the
// SHA-256 of the field-table walk's bytes — a format line, the model
// stamp, the cell's kind, then one `key=value` line per row the kind
// reads — over open cells with faults and hotspot weights, explicit
// flows with a victim (and its hidden reference cell, which keys the
// victims only), and closed-loop cells.
func TestCanonKeyIsWalkHash(t *testing.T) {
	for name, tc := range map[string]struct {
		toml  string
		lines []string // lines every visible cell's bytes must hold
	}{
		"open": {strings.Replace(cacheBase, `"uniform"`, `"hotspot"`, 1) +
			"hotspot_weights = [1, 2, 1, 1, 1, 1, 1, 1]\n[faults]\nretry_timeout = 300\n[[faults.router]]\nnode = 3\nfrom = 100\nuntil = 200\n",
			[]string{"kind=open", `pattern="hotspot"`, "rate=0.03", "hotspot_weights=[1,2,1,1,1,1,1,1]",
				"faults.retry_timeout=300", "faults.max_retries=3", "faults.router[]", "faults.router[].node=3"}},
		"flows": {"topology = \"mesh_x1\"\nqos = [\"no-qos\"]\n[[flows]]\nnode = 1\nrate = 0.05\ndest = 7\nrole = \"victim\"\n[[flows]]\nnode = 2\nrate = 0.9\ndest = 7\n",
			[]string{"kind=flows", `topology="mesh_x1"`, `qos="no-qos"`, "flows[].rate=0.9", `flows[].role="victim"`}},
		"closed": {"topology = \"mesh_x1\"\n[workload]\nmode = \"closed\"\noutstanding = [2, 8]\nthink_time = 50\n",
			[]string{"kind=closed", `workload.mode="closed"`, "workload.think_time=50"}},
	} {
		g := gridOf(t, tc.toml)
		keys, err := g.Keys()
		if err != nil {
			t.Fatal(err)
		}
		var canons [][]byte
		for i := range g.Size() {
			b := g.canonOf(nil, i, nil)
			if store.KeyOf(b) != keys[i] {
				t.Errorf("%s: cell %d key is not the hash of\n%s", name, i, b)
			}
			for _, want := range tc.lines {
				if !strings.Contains("\n"+string(b), "\n"+want+"\n") {
					t.Errorf("%s: cell %d bytes lack %q:\n%s", name, i, want, b)
				}
			}
			canons = append(canons, b)
		}
		for _, r := range refIdx(g) {
			b := g.canonOf(nil, r, nil)
			if strings.Count(string(b), "flows[]\n") != 1 ||
				!strings.Contains(string(b), "kind=victim-ref\n") {
				t.Errorf("%s: reference cell %d keys\n%s", name, r, b)
			}
			canons = append(canons, b)
		}
		// Every line after the header is a table row's key and value, or
		// an array element's opening line.
		known := map[string]bool{}
		for _, f := range fields {
			known[f.key] = true
		}
		for _, b := range canons {
			lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
			if lines[0] != canonFormat || lines[1] != "model="+network.ModelVersion {
				t.Errorf("%s: header %q", name, lines[:2])
			}
			for _, line := range lines[3:] {
				key, _, _ := strings.Cut(line, "=")
				if !known[key] {
					t.Errorf("%s: line %q names no table row", name, line)
				}
			}
		}
		if name == "flows" && len(refIdx(g)) == 0 {
			t.Error("flows grid has no reference cells to check")
		}
	}
}

// TestGridSharesOneRateVector pins what a grid holds per cell: a point
// and a meta, allocated at exact size, and no QoS table of its own. Every
// cell Cell builds — visible or victim reference, for every kind — shares
// the grid's one Rates backing array (the engine only reads it; see
// TestRunLeavesQoSRatesUntouched in internal/network) and carries its
// point's mode, topology and seed.
func TestGridSharesOneRateVector(t *testing.T) {
	dir := t.TempDir()
	tr := recordRun(t).Trace(workload.TraceHeader{Nodes: topology.ColumnNodes, Topology: "mesh_x1",
		QoS: "pvc", Seed: 42, Warmup: 200, Measure: 800})
	trace := filepath.Join(dir, "t.trace")
	if err := os.WriteFile(trace, tr.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]string{
		"open and closed": "patterns = [\"uniform\", \"tornado\"]\nrates = [0.01, 0.02, 0.03]\ntopology = \"all\"\n" +
			"qos = [\"pvc\", \"no-qos\"]\nseeds = [1, 2]\n[workload]\nmode = [\"open\", \"closed\"]\noutstanding = [2, 4]\n",
		"recovery axes": strings.Replace(cacheBase, `["pvc"]`, `["pvc", "no-qos"]`, 1) + "[faults]\nretry_timeout = [0, 300]\nmax_retries = [1, 2]\n",
		"flows": "topology = [\"mesh_x1\", \"dps\"]\nqos = [\"pvc\", \"no-qos\"]\nseeds = [1, 2]\n" +
			"[[flows]]\nnode = 1\nrate = 0.05\ndest = 7\nrole = \"victim\"\n[[flows]]\nnode = 2\nrate = 0.3\ndest = 7\n",
		"replay": "topology = [\"mesh_x1\", \"mecs\"]\nqos = [\"pvc\", \"no-qos\"]\n[workload]\ntrace = \"" + trace + "\"\n",
	} {
		g := gridOf(t, src)
		if cap(g.pts) != len(g.pts) || cap(g.meta) != len(g.pts) || len(g.meta) != len(g.pts) ||
			cap(g.Points) != g.Size() || g.Size() == 0 {
			t.Errorf("%s: %d points (cap %d), %d metas (cap %d), %d visible (cap %d): want exact sizes",
				name, len(g.pts), cap(g.pts), len(g.meta), cap(g.meta), g.Size(), cap(g.Points))
		}
		if name == "flows" && len(refIdx(g)) == 0 {
			t.Fatal("flows grid has no reference cells to check")
		}
		for i := range g.pts {
			cfg := g.Cell(i).Config
			if p := g.pts[i]; cfg.QoS.Mode != p.Mode || cfg.Kind != p.Topology || cfg.Seed != p.Seed {
				t.Errorf("%s: cell %d runs %v/%v/%d, point is %+v", name, i, cfg.Kind, cfg.QoS.Mode, cfg.Seed, p)
			}
			if len(cfg.QoS.Rates) != cfg.Workload.TotalFlows() || &cfg.QoS.Rates[0] != &g.qos.Rates[0] {
				t.Errorf("%s: cell %d has its own %d-flow Rates vector", name, i, len(cfg.QoS.Rates))
			}
		}
	}
}

// TestSweepFreesCollectorsAsRowsLand pins what a sweep holds while it
// runs: its grid, one chunk of rows and one engine per worker — not the
// finished cells' collectors, nor a row per cell. The grids are the
// benchmark's short grid, cells of 200 cycles, at 40 and 80 seeds (2 400
// and 4 800 cells), streamed with no store on one worker into a sink
// that keeps nothing. At the last row, after a forced GC, the live heap
// the extra 2 400 cells add must stay under 160 B a cell: it measures
// about 100 B, a Point and a cellMeta. The bound is marginal because the
// chunk, the engines and the workloads weigh the same in both grids.
// Collecting every row, as the executor did before it streamed, held
// about 460 B a cell more or less this way: a 272 B Result, a 72 B
// runner.Result and the hit and miss lists beside the grid. Earlier, per
// cell over the whole 4 800-cell grid, holding a built runner.Cell, with
// its own 512-byte QoS rate vector, put the heap at 1.6 KB, and holding
// every cell's *stats.Collector (about 3.2 KB) as well at 5.1 KB.
func TestSweepFreesCollectorsAsRowsLand(t *testing.T) {
	live := func(nseeds int) (cells int, heap int64) {
		seeds := make([]string, nseeds)
		for i := range seeds {
			seeds[i] = fmt.Sprint(1 + i)
		}
		var base, last runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&base)
		g := gridOf(t, `
patterns = ["uniform", "transpose"]
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.02, 0.04, 0.06]
seeds = [`+strings.Join(seeds, ", ")+`]
warmup = 50
measure = 150
`)
		cells = len(g.Points)
		rows := 0
		rep, err := g.Stream(context.Background(), DurableOpts{RunOpts: RunOpts{Workers: 1}},
			func(first int, chunk []Result) error {
				rows += len(chunk)
				if first+len(chunk) == cells {
					runtime.GC()
					runtime.ReadMemStats(&last)
				}
				return nil
			})
		if err != nil {
			t.Fatal(err)
		}
		if rows != cells || rep.Executed != cells || rep.Failed != 0 {
			t.Fatalf("%d rows, executed %d of %d cells, %d failed", rows, rep.Executed, cells, rep.Failed)
		}
		return cells, int64(last.HeapAlloc) - int64(base.HeapAlloc)
	}
	live(1) // whatever the first sweep builds once for the process
	small, smallHeap := live(40)
	large, largeHeap := live(80)
	perCell := (largeHeap - smallHeap) / int64(large-small)
	t.Logf("live heap at the last row: %d B over %d cells, %d B over %d: %d B a marginal cell",
		smallHeap, small, largeHeap, large, perCell)
	if perCell >= 160 {
		t.Errorf("sweep holds %d B of live heap per added cell at its last row, want under 160", perCell)
	}
}
