package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tanoq/internal/runner"
)

const (
	traceSmoke    = "../../examples/sweep/trace-smoke.toml"
	traceExample  = "../../examples/traces/uniform-mesh_x1.trace"
	timelineSmoke = "../../examples/sweep/timeline-smoke.toml"
	degradeSmoke  = "../../examples/sweep/degrade.toml"
	paperFig4b    = "../../examples/paper/fig4b.toml"
)

// captured runs fn with os.Stdout and os.Stderr swapped for pipes and
// returns what fn wrote to each beside its error. The subcommands print
// to the process streams directly; swapping them keeps the test
// in-process without a seam in the tool.
func captured(t *testing.T, fn func() error) (stdout, stderr string, err error) {
	t.Helper()
	drain := func(stream **os.File) (wait func() string) {
		r, w, perr := os.Pipe()
		if perr != nil {
			t.Fatal(perr)
		}
		saved := *stream
		*stream = w
		out := make(chan string, 1)
		go func() {
			blob, _ := io.ReadAll(r) // a failed read shows as missing output
			out <- string(blob)
		}()
		return func() string {
			*stream = saved
			w.Close()
			defer r.Close()
			return <-out
		}
	}
	waitOut, waitErr := drain(&os.Stdout), drain(&os.Stderr)
	err = fn()
	return waitOut(), waitErr(), err
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
