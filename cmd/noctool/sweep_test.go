package main

import (
	"io"
	"os"
	"strings"
	"testing"
)

const traceSmoke = "../../examples/sweep/trace-smoke.toml"

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
// prints: nothing on stdout, and an error that says what to change.
func TestBadInvocationFailsBeforeRunning(t *testing.T) {
	cases := []struct {
		name    string
		main    func([]string) error
		args    []string
		wantErr string
	}{
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
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, _, err := captured(t, func() error { return tc.main(tc.args) })
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error = %v, want one containing %q", err, tc.wantErr)
			}
			if stdout != "" {
				t.Errorf("printed before failing:\n%s", stdout)
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
