package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tanoq/internal/runner"
	"tanoq/internal/scenario"
	"tanoq/internal/store"
)

const (
	traceSmoke    = "../../examples/sweep/trace-smoke.toml"
	traceExample  = "../../examples/traces/uniform-mesh_x1.trace"
	timelineSmoke = "../../examples/sweep/timeline-smoke.toml"
	degradeSmoke  = "../../examples/sweep/degrade.toml"
	degradeGolden = "../../examples/sweep/degrade.golden"
	paperFig4b    = "../../examples/paper/fig4b.toml"
	resumeSmoke   = "../../examples/sweep/resume-smoke.toml"
)

// captured runs fn with os.Stdout and os.Stderr swapped for pipes and
// returns what fn wrote to each beside its error. The subcommands print
// to the process streams directly; swapping them keeps the test
// in-process without a seam in the tool.
func captured(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	waitOut, waitErr := redirect(t, &os.Stdout, nil), redirect(t, &os.Stderr, nil)
	err = fn()
	return waitOut(), waitErr(), err
}

// redirect swaps *stream for a pipe, handing each line written to it to
// tap (when not nil) as it arrives. The returned wait restores the stream
// and returns everything written.
func redirect(t *testing.T, stream **os.File, tap func(line string)) (wait func() string) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := *stream
	*stream = w
	out := make(chan string, 1)
	go func() {
		var all strings.Builder
		br := bufio.NewReader(r)
		for {
			line, err := br.ReadString('\n')
			all.WriteString(line)
			if tap != nil && line != "" {
				tap(line)
			}
			if err != nil { // a failed read shows as missing output
				break
			}
		}
		out <- all.String()
	}()
	return func() string {
		*stream = saved
		w.Close()
		defer r.Close()
		return <-out
	}
}

// TestBadInvocationFailsBeforeRunning pins that an invocation the tool
// is going to reject is rejected before any simulation runs or any row
// prints: nothing on stdout, an error that says what to change, and —
// for the sweeps, which here run against a store that checkpoints every
// finished cell — a cache directory nothing was written to.
func TestBadInvocationFailsBeforeRunning(t *testing.T) {
	const noSuchDir = "/nonexistent/tanoq-test/"
	// cachedSweep is sweepMain against a store in cacheDir, which each case
	// points at a fresh directory and expects to find still empty.
	var cacheDir string
	cachedSweep := func(args []string) error {
		return sweepMain(append([]string{"-cache", "-cache-dir", cacheDir}, args...))
	}
	cases := []struct {
		name    string
		main    func([]string) error
		args    []string
		wantErr string
	}{
		{"negative sweep workers", sweepMain,
			[]string{"-parallel", "-3", traceSmoke},
			"-parallel -3: want 0"},
		{"negative experiment workers", experimentsMain,
			[]string{"-parallel", "-2", "-quick", "preempt"},
			"-parallel -2: want 0"},
		{"negative cache verification sample", cachedSweep,
			[]string{"-cache-verify", "-2", traceSmoke},
			"-cache-verify -2: want"},
		{"cache-verify without a store", sweepMain,
			[]string{"-cache-verify", "2", traceSmoke},
			"-cache-verify needs -cache, -resume or cache = true in [run]"},
		{"flag after the experiment name", experimentsMain,
			[]string{"fig3", "-csv"},
			`unknown experiment "-csv": experiment flags go before the names`},
		{"unknown name after a valid one", experimentsMain,
			[]string{"-quick", "table2", "bogus"},
			`unknown experiment "bogus"`},
		{"bench is not a subcommand", experimentsMain,
			[]string{"bench"},
			`unknown experiment "bench"`},
		{"sweep report into a missing directory", cachedSweep,
			[]string{"-out", noSuchDir + "x.json", traceSmoke},
			"-out: open " + noSuchDir + "x.json"},
		{"sweep timeline into a missing directory", cachedSweep,
			[]string{"-timeline", noSuchDir + "t.json", timelineSmoke},
			"timeline output: open " + noSuchDir + "t.json"},
		{"sweep timeline with no format extension", cachedSweep,
			[]string{"-timeline", filepath.Join(t.TempDir(), "t.txt"), timelineSmoke},
			"want a .json or .csv extension"},
		{"sweep timeline of a scenario without probes", cachedSweep,
			[]string{"-timeline", filepath.Join(t.TempDir(), "t.json"), traceSmoke},
			"-timeline needs a [telemetry] table"},
		{"degrade of a cached scenario", degradeMain,
			[]string{"-set", "run.cache=true", degradeSmoke},
			"degrade opens no store"},
		{"timeline of a cached scenario", timelineMain,
			[]string{"-set", "run.cache=true", timelineSmoke},
			"timeline opens no store"},
		{"trace replay with record's flags", traceMain,
			[]string{"-set", "bogus=1", "-seed", "9", "-quick", "-out", noSuchDir + "x", "replay", traceExample},
			"trace replay does not take -out"},
		{"trace replay with a schedule flag", traceMain,
			[]string{"-warmup", "5", "replay", traceExample},
			"trace replay does not take -warmup"},
		{"trace replay with -stats", traceMain,
			[]string{"-stats", "replay", traceExample},
			"trace replay does not take -stats"},
		{"trace info with a seed", traceMain,
			[]string{"-stats", "-seed", "9", "info", traceExample},
			"trace info does not take -seed"},
		{"trace record with -stats", traceMain,
			[]string{"-stats", "-out", noSuchDir + "x.trace", "record", traceSmoke},
			"trace record does not take -stats"},
		{"experiment with an empty measurement window", experimentsMain,
			[]string{"-quick", "-measure", "0", "table2"},
			"schedule warmup 3000 / measure 0 invalid"},
		{"experiment with a negative measurement window", experimentsMain,
			[]string{"-measure", "-5", "fig5"},
			"schedule warmup 20000 / measure -5 invalid"},
		{"experiment with a negative warmup", experimentsMain,
			[]string{"-quick", "-warmup", "-5", "motivation"},
			"schedule warmup -5 / measure"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cacheDir = filepath.Join(t.TempDir(), "cache")
			stdout, _, err := captured(t, func() error { return tc.main(tc.args) })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if stdout != "" {
				t.Errorf("printed before failing:\n%s", stdout)
			}
			if entries, _ := os.ReadDir(cacheDir); len(entries) > 0 {
				t.Errorf("the sweep ran: its store holds %d entries", len(entries))
			}
		})
	}
}

// TestSweepWarmCacheExecutesNothing runs one scenario twice against the
// same store: the first run simulates and checkpoints its cell, the
// second serves it from the cache, verifies it, and prints the same row.
func TestSweepWarmCacheExecutesNothing(t *testing.T) {
	dir := t.TempDir()
	sweep := func(extra ...string) (stdout, stderr string) {
		t.Helper()
		args := append([]string{"-csv", "-cache", "-cache-dir", dir}, extra...)
		stdout, stderr, err := captured(t, func() error { return sweepMain(append(args, traceSmoke)) })
		if err != nil {
			t.Fatalf("sweep %v: %v\n%s", args, err, stderr)
		}
		return stdout, stderr
	}
	cold, coldErr := sweep()
	if !strings.Contains(coldErr, "1 cells: 0 cached, executed 1, 0 failed") {
		t.Errorf("cold run accounting:\n%s", coldErr)
	}
	warm, warmErr := sweep("-cache-verify", "1")
	if !strings.Contains(warmErr, "1 cells: 1 cached, executed 0, 0 failed") {
		t.Errorf("warm run accounting:\n%s", warmErr)
	}
	if !strings.Contains(warmErr, "cache-verify: 1 verified, 0 diverged") {
		t.Errorf("warm run verification:\n%s", warmErr)
	}
	if warm != cold {
		t.Errorf("cached row differs from the executed one:\ncold: %s\nwarm: %s", cold, warm)
	}
}

// TestRunTableAppliesToEverySubcommand pins that the scenario's [run]
// table governs every subcommand that runs a grid: a 1 ms deadline with
// no retries fails the 400 000-cycle cell under sweep, degrade and
// timeline alike, and the printed rows say so.
func TestRunTableAppliesToEverySubcommand(t *testing.T) {
	set := []string{"-set", "run.deadline_ms=1", "-set", "run.retries=0", "-set", "measure=400000"}
	for _, tc := range []struct {
		name     string
		main     func([]string) error
		scenario string
	}{
		{"sweep", sweepMain, traceSmoke},
		{"degrade", degradeMain, degradeSmoke},
		{"timeline", timelineMain, timelineSmoke},
	} {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, err := captured(t, func() error { return tc.main(append(set, tc.scenario)) })
			if err != nil {
				t.Fatalf("%v\n%s", err, stderr)
			}
			if !strings.Contains(stdout, runner.ErrDeadline.Error()) {
				t.Errorf("no cell missed its 1 ms deadline:\n%s", stdout)
			}
		})
	}
}

// TestDegradeMatchesGolden runs `noctool degrade` over the example
// degradation sweep (`make sweep-smoke`), whose cells all succeed, so the
// faulted/healthy join and the inflation ratios are all exercised. It runs
// at one worker and at one per CPU, as a table and as CSV: the two worker
// counts must print the same bytes, the table must match the committed
// golden, and the CSV must carry one error-free row per table row.
func TestDegradeMatchesGolden(t *testing.T) {
	golden, err := os.ReadFile(degradeGolden)
	if err != nil {
		t.Fatal(err)
	}
	outputs := map[string]string{}
	for _, format := range []string{"table", "csv"} {
		for _, parallel := range []string{"1", "0"} {
			args := []string{"-parallel", parallel, degradeSmoke}
			if format == "csv" {
				args = append([]string{"-csv"}, args...)
			}
			stdout, stderr, err := captured(t, func() error { return degradeMain(args) })
			if err != nil {
				t.Fatalf("degrade %v: %v\n%s", args, err, stderr)
			}
			if prev, ok := outputs[format]; ok && stdout != prev {
				t.Errorf("%s at -parallel %s differs from -parallel 1:\n%s\nwant\n%s", format, parallel, stdout, prev)
			}
			outputs[format] = stdout
		}
	}
	if outputs["table"] != string(golden) {
		t.Errorf("degrade table:\n%s\nwant (%s)\n%s", outputs["table"], degradeGolden, golden)
	}
	tableRows := strings.Count(string(golden), "\nuniform ")
	rows := dropColumns(t, outputs["csv"])
	if len(rows) != tableRows+1 || tableRows == 0 {
		t.Fatalf("CSV has %d lines for %d table rows:\n%s", len(rows), tableRows, outputs["csv"])
	}
	for _, row := range rows[1:] {
		if row[len(row)-1] != "" {
			t.Errorf("CSV row failed: %v", row)
		}
	}
}

// TestMetricsSmoke gates the observability surface (`make metrics-smoke`).
// `noctool timeline` over the telemetry scenario reproduces its committed
// per-interval table byte for byte: probes ride the event calendar, so
// the series is as deterministic as the run. Then a cached sweep of the
// same scenario serves -http on a free port; the per-cell hook scrapes
// /metrics and /debug/pprof/cmdline while the sweep is live. The scrape,
// with sample values normalised, must equal the committed exposition
// shape (families, HELP/TYPE lines and label sets are fixed from the
// first scrape), and -progress must print its accounting line.
func TestMetricsSmoke(t *testing.T) {
	timeline, stderr, err := captured(t, func() error { return timelineMain([]string{timelineSmoke}) })
	if err != nil {
		t.Fatalf("timeline: %v\n%s", err, stderr)
	}
	if golden, err := os.ReadFile("../../examples/sweep/timeline-smoke.golden"); err != nil {
		t.Fatal(err)
	} else if timeline != string(golden) {
		t.Errorf("timeline:\n%s\nwant\n%s", timeline, golden)
	}

	get := func(url string) (string, error) {
		resp, err := http.Get(url)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s: %s", url, resp.Status)
		}
		return string(body), err
	}
	addr := make(chan string, 1)
	var scraped sync.Once
	var scrape string
	scrapeErr := errors.New("no cell finished")
	onCell := func(scenario.CellEvent) {
		scraped.Do(func() {
			select {
			case a := <-addr:
				if scrape, scrapeErr = get("http://" + a + "/metrics"); scrapeErr == nil {
					_, scrapeErr = get("http://" + a + "/debug/pprof/cmdline")
				}
			case <-time.After(time.Minute):
				scrapeErr = errors.New("the sweep never said where it serves")
			}
		})
	}
	waitOut := redirect(t, &os.Stdout, nil)
	waitErr := redirect(t, &os.Stderr, func(line string) {
		if _, a, ok := strings.Cut(strings.TrimSpace(line), "/debug/pprof on http://"); ok {
			addr <- a
		}
	})
	err = sweepCtx(context.Background(), []string{"-parallel", "1", "-progress", "-cache",
		"-cache-dir", filepath.Join(t.TempDir(), "cache"), "-http", "127.0.0.1:0", timelineSmoke}, onCell)
	waitOut()
	stderr = waitErr()
	if err != nil {
		t.Fatalf("sweep: %v\n%s", err, stderr)
	}
	if scrapeErr != nil {
		t.Fatalf("scrape: %v\n%s", scrapeErr, stderr)
	}
	golden, err := os.ReadFile("../../examples/sweep/metrics-smoke.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := sampleValue.ReplaceAllString(scrape, " V"); got != string(golden) {
		t.Errorf("/metrics, sample values normalised:\n%s\nwant\n%s", got, golden)
	}
	if !strings.Contains(stderr, "progress:") {
		t.Errorf("-progress printed no accounting line:\n%s", stderr)
	}
}

// sampleValue is a Prometheus sample's value at the end of its line.
var sampleValue = regexp.MustCompile(`(?m) [0-9][0-9.eE+-]*$`)

// TestPaperScenarioTakesEveryLayer pins that a paper grid resolves like
// any scenario file: its include and profile, the TANOQ_SET_* env layer
// and -set all reach the resolved keys, and a typo in any layer fails.
func TestPaperScenarioTakesEveryLayer(t *testing.T) {
	t.Setenv("TANOQ_SET_SEED", "7")
	stdout, stderr, err := captured(t, func() error {
		return sweepMain([]string{"-explain", "-set", "measure=100", paperFig4b + "#quick"})
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, stderr)
	}
	for _, want := range []string{
		`pattern = "tornado"`,
		"rates = [0.01, 0.02, 0.05, 0.08, 0.11, 0.14]  # profile:quick",
		"seed = 7 ",
		"# env TANOQ_SET_SEED",
		"measure = 100 ",
		"# cli -set measure=100",
	} {
		if !strings.Contains(stdout, want) {
			t.Errorf("-explain lacks %q:\n%s", want, stdout)
		}
	}
	t.Setenv("TANOQ_SET_BOGUS", "1")
	if _, _, err := captured(t, func() error { return sweepMain([]string{"-explain", paperFig4b}) }); err == nil ||
		!strings.Contains(err.Error(), `unknown key "bogus"`) {
		t.Errorf("TANOQ_SET_BOGUS: error = %v, want an unknown key", err)
	}
}

// TestTraceRecordReplaysFingerprint is the record→replay exactness
// contract end to end: recording the trace-smoke cell and replaying the
// trace prints one delivery fingerprint twice. A cell the watchdog kills
// — a router stall at the hotspot that outlasts faults.watchdog_cycles —
// fails record with the runner's error but writes its repro trace, and
// replaying that trace trips the watchdog with the same message. A cell
// that fails any other way leaves no trace behind.
func TestTraceRecordReplaysFingerprint(t *testing.T) {
	dir := t.TempDir()
	fingerprint := func(stdout string) string {
		t.Helper()
		for _, line := range strings.Split(stdout, "\n") {
			if strings.HasPrefix(line, "fingerprint: ") {
				return line
			}
		}
		t.Fatalf("no fingerprint line in:\n%s", stdout)
		return ""
	}
	trace := filepath.Join(dir, "smoke.trace")
	rec, stderr, err := captured(t, func() error { return traceMain([]string{"-out", trace, "record", traceSmoke}) })
	if err != nil {
		t.Fatalf("record: %v\n%s", err, stderr)
	}
	rep, stderr, err := captured(t, func() error { return traceMain([]string{"replay", trace}) })
	if err != nil {
		t.Fatalf("replay: %v\n%s", err, stderr)
	}
	if want, got := fingerprint(rec), fingerprint(rep); got != want {
		t.Errorf("replay drifted from the recording:\nrecord: %s\nreplay: %s", want, got)
	}

	t.Run("wedged cell", func(t *testing.T) {
		wedge := filepath.Join(dir, "wedge.toml")
		if err := os.WriteFile(wedge, []byte(`
pattern = "hotspot"
topology = "mesh_x1"
qos = "pvc"
rate = 0.05
warmup = 1000
measure = 5000
[faults]
watchdog_cycles = 1000
[[faults.router]]
node = 0
from = 500
until = 6000
`), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "wedge.trace")
		stdout, _, recErr := captured(t, func() error { return traceMain([]string{"-out", out, "record", wedge}) })
		if recErr == nil || !strings.Contains(recErr.Error(), "cell panicked: network: no forward progress") {
			t.Fatalf("record error = %v, want the watchdog's", recErr)
		}
		if !strings.HasPrefix(stdout, "recorded repro trace "+out) {
			t.Errorf("record did not report its repro trace:\n%s", stdout)
		}
		_, _, repErr := captured(t, func() error { return traceMain([]string{"replay", out}) })
		if repErr == nil {
			t.Fatal("replaying the repro trace did not trip the watchdog")
		}
		// Same trip cycle and last-progress cycle: the messages agree
		// past their verb.
		got := strings.TrimPrefix(repErr.Error(), "trace replay: ")
		if want := strings.TrimPrefix(recErr.Error(), "trace record: "); got != want {
			t.Errorf("repro replay diverged:\nrecord: %s\nreplay: %s", want, got)
		}
	})

	// No valid scenario fails a cell but through the watchdog, so the
	// other failure is one before the cell runs: a replay scenario whose
	// trace file is no trace.
	t.Run("other failure", func(t *testing.T) {
		bad := filepath.Join(dir, "bad.trace")
		if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
			t.Fatal(err)
		}
		sc := filepath.Join(dir, "bad.toml")
		if err := os.WriteFile(sc, []byte("topology = \"mesh_x1\"\nqos = \"pvc\"\n[workload]\ntrace = \"bad.trace\"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, "bad-out.trace")
		stdout, _, err := captured(t, func() error { return traceMain([]string{"-out", out, "record", sc}) })
		if err == nil || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("error = %v, want the trace decoder's", err)
		}
		if stdout != "" {
			t.Errorf("printed a recording:\n%s", stdout)
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("wrote a trace for a failed record (stat: %v)", err)
		}
	})
}

// dropColumns returns the records of a sweep CSV with the named columns
// removed, found by their header names.
func dropColumns(t *testing.T, text string, names ...string) [][]string {
	t.Helper()
	records, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil || len(records) == 0 {
		t.Fatalf("unreadable CSV (%v):\n%s", err, text)
	}
	var drop []int
	for _, name := range names {
		i := slices.Index(records[0], name)
		if i < 0 {
			t.Fatalf("CSV header has no %q column: %v", name, records[0])
		}
		drop = append(drop, i)
	}
	for r, rec := range records {
		var kept []string
		for i, field := range rec {
			if !slices.Contains(drop, i) {
				kept = append(kept, field)
			}
		}
		records[r] = kept
	}
	return records
}

// dropTableCells returns a sweep table's lines with the cells under the
// named header cells removed from every row laid out like the header
// (FAILED rows carry no such cells and stay whole).
func dropTableCells(t *testing.T, text string, names ...string) []string {
	t.Helper()
	lines := strings.Split(text, "\n")
	if len(lines) < 3 {
		t.Fatalf("no table header in:\n%s", text)
	}
	header := strings.Fields(lines[2])
	var drop []int
	for _, name := range names {
		i := slices.Index(header, name)
		if i < 0 {
			t.Fatalf("table header has no %q cell: %v", name, header)
		}
		drop = append(drop, i)
	}
	for l, line := range lines[2:] {
		cells := strings.Fields(line)
		if len(cells) != len(header) || strings.Contains(line, " FAILED (") {
			continue
		}
		var kept []string
		for i, cell := range cells {
			if !slices.Contains(drop, i) {
				kept = append(kept, cell)
			}
		}
		lines[2+l] = strings.Join(kept, " ")
	}
	return lines
}

// dropJSONKeys returns an indented JSON report's lines without the
// lines of the named keys.
func dropJSONKeys(text string, names ...string) []string {
	var kept []string
	for _, line := range strings.Split(text, "\n") {
		key, _, _ := strings.Cut(strings.TrimSpace(line), ":")
		if !slices.Contains(names, strings.Trim(key, `"`)) {
			kept = append(kept, line)
		}
	}
	return kept
}

// The wall-clock columns of each output: each run records its own
// elapsed time there, so two runs of one grid differ in them only.
var (
	wallCSV   = []string{"wall_ms", "cycles_per_sec"}
	wallTable = []string{"wall-ms", "Mcyc/s"}
)

// TestSweepStreamsWhatItCollects pins the streamed outputs: for every
// scenario file under examples/sweep that sweeps (base.toml is only an
// include), and for a generated grid of several chunks with a ragged
// tail, at -parallel 1 and 0, the CSV, table and -out JSON report that
// `noctool sweep` writes a chunk at a time as the grid runs equal
// scenario.CSV, the one-piece table and scenario.JSONReport over the
// rows RunDurable collects for the same grid, modulo the wall-clock
// columns, dropped by name. The example runs check their rows into a
// store, which then serves the table run and the collected rows; the
// large grid runs every time, to keep thousands of entries out of it.
// fig4-quick.json runs a second time with -quick, whose override layer
// must then own the resolved schedule.
func TestSweepStreamsWhatItCollects(t *testing.T) {
	files, err := filepath.Glob("../../examples/sweep/*.[tj]*")
	if err != nil {
		t.Fatal(err)
	}
	files = slices.DeleteFunc(files, func(f string) bool {
		ext := filepath.Ext(f)
		return (ext != ".toml" && ext != ".json") || filepath.Base(f) == "base.toml"
	})
	seeds := make([]string, 45)
	for i := range seeds {
		seeds[i] = fmt.Sprint(1 + i)
	}
	chunks := filepath.Join(t.TempDir(), "chunks.toml")
	if err := os.WriteFile(chunks, []byte(`name = "chunks"
patterns = ["uniform", "transpose"]
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.02, 0.04, 0.06]
seeds = [`+strings.Join(seeds, ", ")+`]
warmup = 50
measure = 150
`), 0o644); err != nil {
		t.Fatal(err)
	}
	if len(files) < 10 {
		t.Fatalf("found only %v", files)
	}
	type sweepRun struct {
		file  string
		quick bool
	}
	var runs []sweepRun
	for _, file := range append(files, chunks) {
		runs = append(runs, sweepRun{file: file})
	}
	runs = append(runs, sweepRun{file: "../../examples/sweep/fig4-quick.json", quick: true})
	for _, run := range runs {
		file, cached := run.file, run.file != chunks
		name := filepath.Base(file)
		if run.quick {
			name += "-quick"
		}
		t.Run(name, func(t *testing.T) {
			sc, res, err := loadLayered(file, layerOpts{sim: &simFlags{quick: run.quick}})
			if err != nil {
				t.Fatal(err)
			}
			if run.quick {
				seen := 0
				for _, line := range strings.Split(res.Explain(), "\n") {
					if key, _, _ := strings.Cut(line, " = "); key == "warmup" || key == "measure" {
						seen++
						if !strings.Contains(line, "-quick") {
							t.Errorf("-quick: %s", line)
						}
					}
				}
				if seen != 2 {
					t.Errorf("-explain shows %d of warmup and measure", seen)
				}
			}
			for _, parallel := range []string{"1", "0"} {
				dir := t.TempDir()
				report := filepath.Join(dir, "report.json")
				flags := []string{"-parallel", parallel}
				if run.quick {
					flags = append(flags, "-quick")
				}
				opts := scenario.DurableOpts{}
				if cached {
					cache := filepath.Join(dir, "cache")
					flags = append(flags, "-cache", "-cache-dir", cache)
					st, err := store.Open(cache)
					if err != nil {
						t.Fatal(err)
					}
					opts.Store = st
				}
				sweep := func(extra ...string) string {
					t.Helper()
					args := append(append(slices.Clone(flags), extra...), file)
					stdout, stderr, err := captured(t, func() error { return sweepMain(args) })
					if err != nil {
						t.Fatalf("sweep %v: %v\n%s", args, err, stderr)
					}
					return stdout
				}
				gotCSV := sweep("-csv", "-out", report)
				gotTable := sweep()
				gotReport, err := os.ReadFile(report)
				if err != nil {
					t.Fatal(err)
				}

				grid, err := sc.Grid()
				if err != nil {
					t.Fatal(err)
				}
				rep, err := grid.RunDurable(context.Background(), opts)
				if err != nil {
					t.Fatal(err)
				}
				if cached && rep.Hits == 0 {
					t.Errorf("-parallel %s: the store served no row", parallel)
				}
				var table strings.Builder
				w := scenario.NewTableWriter(&table, sc.Name, len(rep.Results))
				if err := w.Write(rep.Results); err != nil || w.Close() != nil {
					t.Fatal(err)
				}
				wantReport, err := scenario.JSONReport(sc.Name, rep.Results)
				if err != nil {
					t.Fatal(err)
				}
				if got, want := dropColumns(t, gotCSV, wallCSV...), dropColumns(t, scenario.CSV(sc.Name, rep.Results), wallCSV...); !reflect.DeepEqual(got, want) {
					t.Errorf("-parallel %s: streamed CSV differs from CSV over the collected rows:\n%s", parallel, gotCSV)
				}
				if got, want := dropTableCells(t, gotTable, wallTable...), dropTableCells(t, table.String()+"\n", wallTable...); !reflect.DeepEqual(got, want) {
					t.Errorf("-parallel %s: streamed table differs from the collected one:\n%s\nwant\n%s", parallel, gotTable, table.String())
				}
				if got, want := dropJSONKeys(string(gotReport), wallCSV...), dropJSONKeys(string(wantReport), wallCSV...); !reflect.DeepEqual(got, want) {
					t.Errorf("-parallel %s: streamed report differs from JSONReport over the collected rows", parallel)
				}
			}
		})
	}
}

// TestSweepResumeMatchesUninterrupted is the durable-execution contract
// end to end (`make resume-smoke`): a cached sequential sweep cancelled
// after a few cells prints the rows it has — the never-run cells as
// skipped rows, then the interrupted marker last — fails, and leaves no
// -out report behind; resumed with -resume it serves the finished cells,
// runs the rest, and prints the uninterrupted sweep's CSV (modulo the
// wall-clock columns); and a verified re-run on the now warm store
// executes nothing.
func TestSweepResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	cache := filepath.Join(dir, "cache")
	report := filepath.Join(dir, "report.json")
	sweep := func(args ...string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := captured(t, func() error { return sweepMain(append(args, resumeSmoke)) })
		if err != nil {
			t.Fatalf("sweep %v: %v\n%s", args, err, stderr)
		}
		return stdout, stderr
	}
	ref, _ := sweep("-csv")

	const k = 5
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	partial, stderr, err := captured(t, func() error {
		return sweepCtx(ctx, []string{"-parallel", "1", "-csv", "-cache", "-cache-dir", cache, "-out", report, resumeSmoke},
			func(scenario.CellEvent) {
				if done.Add(1) == k {
					cancel()
				}
			})
	})
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("sweep interrupted: %d of 36 cells finished and checkpointed", k)) {
		t.Fatalf("interrupted sweep: error %v\n%s", err, stderr)
	}
	lines := strings.Split(strings.TrimSuffix(partial, "\n"), "\n")
	if len(lines) != 38 || !strings.HasPrefix(lines[37], "# interrupted: partial results") {
		t.Errorf("interrupted output is not header, 36 rows and the marker last:\n%s", partial)
	}
	if n := strings.Count(partial, "skipped: sweep cancelled"); n != 36-k {
		t.Errorf("%d skipped rows, want %d", n, 36-k)
	}
	if !strings.Contains(stderr, "sweep: not writing "+report+" (sweep interrupted)") {
		t.Errorf("interrupted sweep did not say it skipped -out:\n%s", stderr)
	}
	if entries, _ := os.ReadDir(dir); len(entries) != 1 || entries[0].Name() != "cache" {
		t.Errorf("interrupted sweep left %v beside its store, want no report or temp file", entries)
	}

	resumed, stderr := sweep("-csv", "-resume", "-cache-dir", cache)
	if !strings.Contains(stderr, fmt.Sprintf("36 cells: %d cached, executed %d, 0 failed, skipped 0", k, 36-k)) {
		t.Errorf("resume accounting:\n%s", stderr)
	}
	if !reflect.DeepEqual(dropColumns(t, resumed, wallCSV...), dropColumns(t, ref, wallCSV...)) {
		t.Errorf("resumed sweep differs from the uninterrupted one:\n%s\nwant\n%s", resumed, ref)
	}
	if _, stderr := sweep("-csv", "-resume", "-cache-dir", cache, "-cache-verify", "2"); !strings.Contains(stderr, "executed 0,") ||
		!strings.Contains(stderr, "cache-verify: 2 verified, 0 diverged") {
		t.Errorf("warm verified re-run:\n%s", stderr)
	}
}

// TestSweepLayeredProfileMatchesFlat gates the layer resolver end to end
// (`make sweep-smoke`): -explain of layered.toml#quick prints the
// committed provenance golden; the profiled grid's CSV equals that of
// its hand-flattened twin, layered-flat.toml, modulo the wall-clock
// columns, dropped by name; and the profiled run against the store the
// flat run filled executes nothing — a profile and its flattening share
// cache keys. It runs from the repository root, where the golden's
// provenance paths start.
func TestSweepLayeredProfileMatchesFlat(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir("../.."); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	const profiled, flat = "examples/sweep/layered.toml#quick", "examples/sweep/layered-flat.toml"
	explain, stderr, err := captured(t, func() error { return sweepMain([]string{"-explain", profiled}) })
	if err != nil {
		t.Fatalf("-explain: %v\n%s", err, stderr)
	}
	golden, err := os.ReadFile("examples/sweep/layered-quick.explain")
	if err != nil {
		t.Fatal(err)
	}
	if explain != string(golden) {
		t.Errorf("-explain %s:\n%s\nwant\n%s", profiled, explain, golden)
	}

	cache := filepath.Join(t.TempDir(), "cache")
	sweep := func(file string) (stdout, stderr string) {
		t.Helper()
		stdout, stderr, err := captured(t, func() error {
			return sweepMain([]string{"-csv", "-cache", "-cache-dir", cache, file})
		})
		if err != nil {
			t.Fatalf("sweep %s: %v\n%s", file, err, stderr)
		}
		return stdout, stderr
	}
	flatCSV, _ := sweep(flat)
	profCSV, profErr := sweep(profiled)
	if !reflect.DeepEqual(dropColumns(t, profCSV, wallCSV...), dropColumns(t, flatCSV, wallCSV...)) {
		t.Errorf("profiled CSV differs from the flattened one:\n%s\nwant\n%s", profCSV, flatCSV)
	}
	if !strings.Contains(profErr, "executed 0,") {
		t.Errorf("profiled run on the warm cache simulated:\n%s", profErr)
	}
}
