package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"tanoq/internal/traffic"
)

// workload is one set of generated inputs and the noctool invocations
// that consume them. gen writes the inputs for one seed into dir —
// running whatever set-up children that takes (a trace recording, a
// cache fill) — and returns the plan of one timed repeat. The program
// under test only ever sees these generated files: no workload depends
// on examples/ or on a built-in scenario name.
type workload struct {
	name string
	why  string
	gen  func(e *env, dir string) (*plan, error)
}

// plan is one set-up's product.
type plan struct {
	invs []invocation
	// sweeps are the distinct scenario runs behind invs, which the traced
	// run walks in-process (short_cells_warm repeats one sweep ten times).
	sweeps []sweepInput
	// next runs untimed before every execution (a cold cache must be cold
	// each time).
	next func()
	// wantRows, when set, is the digest every CSV invocation's normalized
	// rows must equal (a warm sweep serves exactly the cold sweep's rows).
	wantRows string
}

// sweepInput is one `noctool sweep` of a generated scenario file.
type sweepInput struct {
	label    string
	scenario string
	cacheDir string // "" = no cache
	timeline string // "" = no -timeline output
	faulted  bool   // cells may legitimately deliver less than everything
}

// invocation is one child process of a timed repeat.
type invocation struct {
	label string
	args  []string
	// csv marks stdout as a sweep CSV: every row is an op and is checked.
	csv     bool
	faulted bool
	// sections, for text output, is how many underlined section titles
	// (one per experiment) stdout must carry; each is an op.
	sections int
	// wantStderr must appear on stderr ("executed 0" on a warm sweep).
	wantStderr string
}

func (s sweepInput) invocation() invocation {
	args := []string{"sweep", "-parallel", "0", "-csv"}
	if s.cacheDir != "" {
		args = append(args, "-cache", "-cache-dir", s.cacheDir)
	}
	if s.timeline != "" {
		args = append(args, "-timeline", s.timeline)
	}
	return invocation{label: s.label, args: append(args, s.scenario), csv: true, faulted: s.faulted}
}

// workloads is the benchmark, in BENCHMARK.json order. Sizes target
// 1.2-2.8 s per timed repeat on a 2-core host, so a run of
// BENCHMARK.json's run_seconds holds several repeats and three set-ups.
var workloads = []workload{
	{
		name: "steady_grid",
		why: "sub-saturation dense stepping: network.Run should be >= 90% of the time and sweep plumbing invisible, " +
			"so hot-path work shows here and store/scenario work must not",
		gen: func(e *env, dir string) (*plan, error) {
			return e.sweepPlan(dir, steadyGrid(e, 250_000))
		},
	},
	{
		name: "saturated_adversarial",
		why: "the same network layer under deep candidate lists, constant preempt/NACK/retransmit and growing backlog; " +
			"a fast path that only helps light load shows nothing here, and peak_rss_mb is largest",
		gen: func(e *env, dir string) (*plan, error) {
			adv := func(name string, flows string) sweepFile {
				return sweepFile{name, fmt.Sprintf(`
topology = "all"
qos = "all"
seeds = %s
warmup = %d
measure = %d
%s`, seedList(e.seed, 1), e.sc.cycles(5_000), e.sc.cycles(20_000), flows)}
			}
			var w1, w2 strings.Builder
			for node, rate := range traffic.Workload1Rates {
				fmt.Fprintf(&w1, "[[flows]]\nnode = %d\nrate = %g\n", node, rate)
			}
			for inj, rate := range traffic.Workload2NodeRates {
				fmt.Fprintf(&w2, "[[flows]]\nnode = 7\ninjector = %d\nrate = %g\n", inj, rate)
			}
			fmt.Fprintf(&w2, "[[flows]]\nnode = 6\nrate = %g\n", traffic.Workload2ExtraRate)
			return e.sweepPlan(dir, adv("adv_workload1", w1.String()), adv("adv_workload2", w2.String()),
				sweepFile{"adv_mix", fmt.Sprintf(`
patterns = ["hotspot", "tornado"]
hotspot_weights = [8, 1, 1, 1, 1, 1, 1, 1]
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.06, 0.12]
seeds = %s
warmup = %d
measure = %d
`, seedList(e.seed, 1), e.sc.cycles(5_000), e.sc.cycles(10_000))})
		},
	},
	{
		name: "sparse_events",
		why: "work is per event, not per cycle: nextWake, wheel far-spill, system timers (fault, retry, watchdog, probe), " +
			"client hooks, the sampler and trace decode; one-timing-wheel work must show here and dense-Step tuning must not",
		gen: genSparse,
	},
	{
		name: "short_cells_cold",
		why: "per-cell fixed cost dominates: network.New/Reset, grid expansion, SHA-256 keys, row JSON, store.Put, " +
			"fsync'd Journal.Record, runner dispatch, CSV render; the write side of store",
		gen: func(e *env, dir string) (*plan, error) {
			// Two sweeps: the whole grid without a cache, then two of its
			// eighty seeds into a cold cache. Every cached cell is a file the
			// harness must later delete, and on this host's ext4 (mounted
			// discard) deleted files tax the file operations of the next
			// minute; keeping the cached part small keeps that tax — which
			// is the host's, not the program's — out of the numbers.
			cached := shortCells(e, 2)
			cached.name = "short_cells_cached"
			p, err := e.sweepPlan(dir, shortCells(e, 80), cached)
			if err != nil {
				return nil, err
			}
			cache := filepath.Join(dir, "cache")
			p.sweeps[1].cacheDir = cache
			p.invs[1] = p.sweeps[1].invocation()
			// The cache is emptied file by file; its 256 shard directories
			// stay, so they are neither deleted nor re-created.
			p.next = func() {
				filepath.WalkDir(cache, func(path string, d os.DirEntry, err error) error {
					if err == nil && !d.IsDir() {
						os.Remove(path)
					}
					return nil
				})
			}
			return p, nil
		},
	},
	{
		name: "short_cells_warm",
		why: "zero simulation: resolve, expand, hash, store.Get, JSON decode, render and process starts; the read side of store, " +
			"so a store or scenario change that helps writes and hurts reads shows as one row up and one down",
		gen: func(e *env, dir string) (*plan, error) {
			p, err := e.sweepPlan(dir, shortCells(e, 16))
			if err != nil {
				return nil, err
			}
			p.sweeps[0].cacheDir = filepath.Join(dir, "cache")
			inv := p.sweeps[0].invocation()
			// Set-up fills the cache with the cold sweep; its rows are what
			// every warm invocation must serve back.
			fill, err := e.child(inv.args...)
			if err != nil {
				return nil, err
			}
			if p.wantRows, _, err = normalizeCSV(fill.stdout); err != nil {
				return nil, err
			}
			inv.wantStderr = "executed 0,"
			p.invs = nil
			for i := 0; i < max(e.sc.count(10), 2); i++ {
				p.invs = append(p.invs, inv)
			}
			return p, nil
		},
	},
	{
		name: "paper_quick",
		why: "the only workload that reaches experiments, physical, chip, core and the non-durable Grid.Run/RunCells path; " +
			"re-routing experiments through scenarios needs a wall-clock that must hold",
		gen: func(e *env, dir string) (*plan, error) {
			args := []string{"-quick", "-parallel", "0", "-seed", fmt.Sprint(e.seed)}
			if e.sc.smoke {
				args = append(args, "-warmup", "150", "-measure", "750")
			}
			return &plan{invs: []invocation{{label: "quick_all", args: append(args, "all"), sections: 12}}}, nil
		},
	},
}

func selectWorkloads(name string) ([]workload, error) {
	if name == "all" {
		return workloads, nil
	}
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return []workload{w}, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (want all or one of %s)", name, strings.Join(names, ", "))
}

// sweepFile is one scenario file to generate: the name doubles as the
// file name and the scenario's row label.
type sweepFile struct{ name, body string }

func (f sweepFile) text() []byte { return []byte(fmt.Sprintf("name = %q%s", f.name, f.body)) }

// sweepPlan writes the scenario files and returns the plan that sweeps
// each once, in order.
func (e *env) sweepPlan(dir string, files ...sweepFile) (*plan, error) {
	p := &plan{}
	for _, f := range files {
		path := filepath.Join(dir, f.name+".toml")
		if err := os.WriteFile(path, f.text(), 0o644); err != nil {
			return nil, err
		}
		s := sweepInput{label: f.name, scenario: path}
		p.sweeps = append(p.sweeps, s)
		p.invs = append(p.invs, s.invocation())
	}
	return p, nil
}

// seedList renders the TOML seed axis [seed, seed+1, ...].
func seedList(seed uint64, n int) string {
	parts := make([]string, n)
	for i := range parts {
		parts[i] = fmt.Sprint(seed + uint64(i))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// steadyGrid is steady_grid's scenario; the traced run's runner
// measurements reuse its cells with a shorter window.
func steadyGrid(e *env, measure int) sweepFile {
	return sweepFile{"steady_grid", fmt.Sprintf(`
pattern = "uniform"
topology = "all"
qos = "pvc"
rates = [0.02, 0.04]
seeds = %s
warmup = %d
measure = %d
`, seedList(e.seed, 2), e.sc.cycles(20_000), e.sc.cycles(measure))}
}

// shortCells is the grid both short_cells workloads sweep — 60 cells per
// seed, 200 cycles each, so that per-cell fixed cost (some 60 us against
// 0.5 us per simulated cycle) is a third of a cell even with no cache.
func shortCells(e *env, seeds int) sweepFile {
	return sweepFile{"short_cells", fmt.Sprintf(`
patterns = ["uniform", "transpose"]
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.02, 0.04, 0.06]
seeds = %s
warmup = 50
measure = 150
`, seedList(e.seed, e.sc.count(seeds)))}
}

// The sparse_events scenario bodies are shared with the traced run's
// micro-measurements, which parse them in memory.

func sparseIdle(e *env) sweepFile {
	return sweepFile{"sparse_idle", fmt.Sprintf(`
pattern = "uniform"
topology = "all"
qos = "pvc"
rates = [0.002, 0.01]
seeds = %s
stop_at = %d
warmup = %d
measure = %d
`, seedList(e.seed, 2), e.sc.cycles(200_000), e.sc.cycles(20_000), e.sc.cycles(1_000_000))}
}

func sparseClosed(e *env) sweepFile {
	return sweepFile{"sparse_closed", fmt.Sprintf(`
pattern = "hotspot"
topology = ["mesh_x1", "mecs", "dps"]
qos = ["pvc", "no-qos"]
seeds = %s
warmup = %d
measure = %d
[workload]
mode = "closed"
outstanding = [2, 8]
think_time = [50, 400]
`, seedList(e.seed, 1), e.sc.cycles(20_000), e.sc.cycles(150_000))}
}

// sparseFaulted schedules one transient link fault and one router stall
// inside the measurement window, with recovery, the watchdog and
// (unless probes is false) a telemetry sampler armed.
func sparseFaulted(e *env, probes bool) sweepFile {
	body := fmt.Sprintf(`
pattern = "uniform"
topology = ["mesh_x1", "mesh_x2"]
qos = "pvc"
rates = [0.01, 0.03]
seeds = %s
warmup = %d
measure = %d
[faults]
retry_timeouts = [400]
watchdog_cycles = %d
[[faults.link]]
port = 3
from = %d
until = %d
[[faults.router]]
node = 5
from = %d
until = %d
`, seedList(e.seed, 1), e.sc.cycles(20_000), e.sc.cycles(200_000), e.sc.cycles(50_000),
		e.sc.cycles(60_000), e.sc.cycles(70_000), e.sc.cycles(120_000), e.sc.cycles(128_000))
	if probes {
		body += fmt.Sprintf("[telemetry]\ninterval = %d\n", e.sc.cycles(5_000))
	}
	return sweepFile{"sparse_faulted", body}
}

func sparseRecord(e *env) sweepFile {
	return sweepFile{"sparse_record", fmt.Sprintf(`
pattern = "uniform"
topology = "mesh_x1"
qos = "pvc"
rate = 0.02
seed = %d
warmup = %d
measure = %d
`, e.seed, e.sc.cycles(20_000), e.sc.cycles(200_000))}
}

func genSparse(e *env, dir string) (*plan, error) {
	p, err := e.sweepPlan(dir, sparseIdle(e), sparseClosed(e), sparseFaulted(e, true), sparseRecord(e))
	if err != nil {
		return nil, err
	}
	// The fourth file is not swept: set-up records its single cell into
	// the trace the replay scenario names.
	record := p.sweeps[3].scenario
	p.sweeps, p.invs = p.sweeps[:3], p.invs[:3]
	p.sweeps[2].faulted = true
	p.sweeps[2].timeline = filepath.Join(dir, "timeline.json")
	p.invs[2] = p.sweeps[2].invocation()
	if _, err := e.child("trace", "-out", filepath.Join(dir, "recorded.trace"), "record", record); err != nil {
		return nil, err
	}
	replay, err := e.sweepPlan(dir, sweepFile{"sparse_replay", fmt.Sprintf(`
topology = "mesh_x1"
qos = ["pvc", "no-qos"]
warmup = %d
measure = %d
[workload]
trace = "recorded.trace"
`, e.sc.cycles(20_000), e.sc.cycles(200_000))})
	if err != nil {
		return nil, err
	}
	p.sweeps = append(p.sweeps, replay.sweeps...)
	p.invs = append(p.invs, replay.invs...)
	return p, nil
}
