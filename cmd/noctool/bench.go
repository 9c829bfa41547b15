package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"tanoq/internal/experiments"
	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// benchReport is the machine-readable performance snapshot `noctool bench`
// writes to BENCH_<date>.json, tracking the engine's perf trajectory
// PR over PR: raw per-cycle engine cost, wall-clock for the quick Figure 4
// grid (sequential vs parallel, idle skipping on vs off), and the
// low-load cells where the event-driven engine's O(work) behaviour shows.
type benchReport struct {
	Date       string `json:"date"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	Note       string `json:"note,omitempty"`
	// Provenance of the measurement, so baselines recorded on different
	// machines or revisions are never compared blind: the commit the
	// binary was built from, the measuring host, and its CPU model.
	GitHead       string      `json:"git_head,omitempty"`
	EngineVersion string      `json:"engine_version,omitempty"`
	Hostname      string      `json:"hostname,omitempty"`
	CPUModel      string      `json:"cpu_model,omitempty"`
	EngineStep    []stepBench `json:"engine_step"`
	QuickFig4Grid []gridBench `json:"quick_fig4_grid"`
	LowLoadCells  []cellBench `json:"low_load_cells"`
	// IdleHorizon times a fixed 200K-cycle horizon over a workload that
	// stops injecting at cycle 2K — the drain-tail / stopped-workload
	// pattern of Figure 6 and the run-to-drain tests. This is where
	// clock fast-forwarding itself pays: the tick engine executes every
	// idle cycle, the skipping engine only the occupied ones.
	IdleHorizon []cellBench `json:"idle_horizon"`
}

// stepBench is the per-topology cost of one tick-driven Step (the
// engine's inner loop, with idle skipping out of the picture), measured
// at two operating points: steady state below saturation, and a
// near-saturation rate where arbitration dominates (deep candidate
// lists, inversion checks every cycle, preemptions under PVC).
type stepBench struct {
	Topology   string  `json:"topology"`
	Rate       float64 `json:"rate"`
	NsPerCycle float64 `json:"ns_per_cycle"`
	// AllocsPerStep must be exactly zero at the sub-saturation point
	// (the regression gate fails otherwise). Saturated marks the
	// arbitration-heavy point, where source backlog grows by design and
	// the amortized container growth it causes is offered load, not an
	// engine leak — the alloc gate skips those entries.
	AllocsPerStep float64 `json:"allocs_per_step"`
	Saturated     bool    `json:"saturated,omitempty"`
}

// gridBench is one full quick-Figure-4-grid regeneration.
type gridBench struct {
	Workers  int     `json:"workers"` // 0 = one per CPU
	SkipIdle bool    `json:"skip_idle"`
	WallMs   float64 `json:"wall_ms"`
}

// cellBench is one low-load simulation cell, timed with idle skipping on
// (skip) and off (tick); TickOverSkip is the skipping speedup.
type cellBench struct {
	Topology     string  `json:"topology"`
	Rate         float64 `json:"rate"`
	SkipWallMs   float64 `json:"skip_wall_ms"`
	TickWallMs   float64 `json:"tick_wall_ms"`
	TickOverSkip float64 `json:"tick_over_skip"`
}

// benchOpts carries the bench subcommand's CLI state.
type benchOpts struct {
	outPath string
	note    string
	// baseline, when set, names a committed BENCH_*.json to compare the
	// fresh engine-step measurements against; a per-point ns/cycle
	// regression beyond maxRegress (fractional) fails the run, as does
	// any steady-state allocation. This is CI's perf gate.
	baseline   string
	maxRegress float64
	// engineOnly skips the wall-clock grid sections, leaving the
	// per-topology engine step cost — everything the baseline comparison
	// reads.
	engineOnly bool
	// cpuProfile/memProfile, when set, write runtime/pprof profiles of
	// the benchmark run, so perf work can be profiled with the shipped
	// tool instead of a patched one. The CPU profile covers the whole
	// run; the heap profile is written at the end.
	cpuProfile string
	memProfile string
}

// benchMain parses the bench subcommand's flags and runs the benchmarks.
func benchMain(args []string) error {
	fs := newFlagSet("bench", "noctool bench [flags]",
		`Measure engine benchmarks and write a machine-readable BENCH_<date>.json
report. -baseline compares the per-topology engine step cost against a
committed report, failing the run past -maxregress; this is CI's perf gate.`)
	sim := addSimFlags(fs)
	out := fs.String("out", "", "output path for the benchmark JSON (default BENCH_<date>.json)")
	note := fs.String("note", "", "free-form annotation stored in the JSON")
	baseline := fs.String("baseline", "", "BENCH_*.json baseline to compare engine ns/cycle against")
	maxRegress := fs.Float64("maxregress", 0.25, "tolerated fractional ns/cycle regression vs -baseline")
	engineOnly := fs.Bool("engine-only", false, "measure only the per-topology engine step cost")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memProfile := fs.String("memprofile", "", "write a heap profile at the end of the run to this file")
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("bench takes no arguments, got %q", fs.Args())
	}
	return runBench(sim.params(explicitFlags(fs)), benchOpts{
		outPath: *out, note: *note,
		baseline: *baseline, maxRegress: *maxRegress, engineOnly: *engineOnly,
		cpuProfile: *cpuProfile, memProfile: *memProfile,
	})
}

// runBench measures and writes the report. Wall-clock samples are
// best-of-three to shave scheduler noise; simulation results themselves
// are deterministic so repetition only stabilizes timing.
func runBench(p experiments.Params, o benchOpts) error {
	if o.cpuProfile != "" {
		f, err := os.Create(o.cpuProfile)
		if err != nil {
			return fmt.Errorf("bench -cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("bench -cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	outPath := o.outPath
	if outPath == "" {
		outPath = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("2006-01-02"))
	}
	rep := benchReport{
		Date:          time.Now().UTC().Format(time.RFC3339),
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Seed:          p.Seed,
		Note:          o.note,
		GitHead:       gitHead(),
		EngineVersion: network.EngineVersion(),
		Hostname:      hostname(),
		CPUModel:      cpuModel(),
	}

	fmt.Println("bench: engine Step cost per topology (steady state + near-saturation)")
	for _, kind := range topology.Kinds() {
		rep.EngineStep = append(rep.EngineStep, benchStep(kind, steadyRate, false, p.Seed))
		rep.EngineStep = append(rep.EngineStep, benchStep(kind, saturationRate(kind), true, p.Seed))
	}

	if !o.engineOnly {
		fmt.Println("bench: quick Fig4 grid wall-clock (workers x idle skip)")
		quick := experiments.QuickParams()
		quick.Seed = p.Seed
		for _, workers := range []int{1, 0} {
			for _, skip := range []bool{true, false} {
				g := quick
				g.Workers = workers
				g.DisableIdleSkip = !skip
				rep.QuickFig4Grid = append(rep.QuickFig4Grid, gridBench{
					Workers:  workers,
					SkipIdle: skip,
					WallMs: bestOf(3, func() {
						experiments.Fig4(experiments.Uniform, experiments.QuickFig4Rates(), g)
					}),
				})
			}
		}

		fmt.Println("bench: low-load cells, idle skipping on vs off")
		for _, kind := range topology.Kinds() {
			for _, rate := range []float64{0.01, 0.02} {
				rep.LowLoadCells = append(rep.LowLoadCells, benchCell(kind, rate, p.Seed))
			}
		}

		fmt.Println("bench: idle horizon (fixed 200K-cycle run, injection stops at 2K)")
		for _, kind := range topology.Kinds() {
			rep.IdleHorizon = append(rep.IdleHorizon, benchIdleHorizon(kind, p.Seed))
		}
	}

	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(outPath, blob, 0o644); err != nil {
		return err
	}
	fmt.Printf("bench: wrote %s\n", outPath)
	if o.memProfile != "" {
		f, err := os.Create(o.memProfile)
		if err != nil {
			return fmt.Errorf("bench -memprofile: %w", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			return fmt.Errorf("bench -memprofile: %w", err)
		}
	}
	for _, c := range rep.LowLoadCells {
		fmt.Printf("  low-load %-8s rate %.2f: skip %.2fms  tick %.2fms  (%.2fx)\n",
			c.Topology, c.Rate, c.SkipWallMs, c.TickWallMs, c.TickOverSkip)
	}
	for _, c := range rep.IdleHorizon {
		fmt.Printf("  idle-horizon %-8s: skip %.2fms  tick %.2fms  (%.2fx)\n",
			c.Topology, c.SkipWallMs, c.TickWallMs, c.TickOverSkip)
	}
	if o.baseline != "" {
		return compareBaseline(rep, o.baseline, o.maxRegress)
	}
	return nil
}

// stepKey identifies one engine_step operating point across reports.
func stepKey(s stepBench) string { return fmt.Sprintf("%s@%.2f", s.Topology, s.Rate) }

// compareBaseline fails when any engine_step point regressed more than
// maxRegress (fractional) against the committed baseline's ns/cycle, or
// when the fresh run allocated at a sub-saturation point (the engine
// must be exactly allocation-free there; saturated points legitimately
// grow backlog). Points present in only one report are reported but
// tolerated, so adding a topology or rate does not wedge CI.
func compareBaseline(rep benchReport, baselinePath string, maxRegress float64) error {
	blob, err := os.ReadFile(baselinePath)
	if err != nil {
		return fmt.Errorf("bench baseline: %w", err)
	}
	var base benchReport
	if err := json.Unmarshal(blob, &base); err != nil {
		return fmt.Errorf("bench baseline %s: %w", baselinePath, err)
	}
	baseNs := map[string]float64{}
	for _, s := range base.EngineStep {
		baseNs[stepKey(s)] = s.NsPerCycle
	}
	fmt.Printf("bench: comparing engine ns/cycle against %s (max regression %.0f%%)\n",
		baselinePath, maxRegress*100)
	if base.CPUModel != "" && base.CPUModel != rep.CPUModel {
		fmt.Printf("bench: WARNING baseline CPU %q differs from this host's %q\n", base.CPUModel, rep.CPUModel)
	}
	var failures []string
	for _, s := range rep.EngineStep {
		if !s.Saturated && s.AllocsPerStep != 0 {
			failures = append(failures, fmt.Sprintf("%s allocates %v/step at steady state (want exactly 0)",
				stepKey(s), s.AllocsPerStep))
		}
		old, ok := baseNs[stepKey(s)]
		if !ok || old <= 0 {
			fmt.Printf("  %-14s %8.1f ns/cycle (no baseline entry)\n", stepKey(s), s.NsPerCycle)
			continue
		}
		delta := (s.NsPerCycle - old) / old
		fmt.Printf("  %-14s %8.1f ns/cycle vs %8.1f baseline (%+.1f%%)\n",
			stepKey(s), s.NsPerCycle, old, delta*100)
		if delta > maxRegress {
			failures = append(failures, fmt.Sprintf("%s regressed %.1f%% (%.1f -> %.1f ns/cycle)",
				stepKey(s), delta*100, old, s.NsPerCycle))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("bench regression gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Println("bench: regression gate passed")
	return nil
}

// steadyRate is the sub-saturation engine_step operating point: every
// topology digests it with bounded queues, so the allocation gate
// applies.
const steadyRate = 0.04

// saturationRate returns the per-topology arbitration-heavy operating
// point: offered load at or just past the topology's uniform-random
// saturation knee (Figure 4(a)), where candidate lists run deep,
// inversion checks fire every cycle and PVC preemptions appear. The
// baseline mesh saturates earliest; replicated meshes and the
// express-channel topologies hold out longer.
func saturationRate(kind topology.Kind) float64 {
	switch kind {
	case topology.MeshX1:
		return 0.10
	case topology.MeshX2:
		return 0.14
	default:
		return 0.16
	}
}

// benchStep times the raw tick path: a warmed network advanced one Step
// at a time, with allocations counted across the timed window. Like the
// wall-clock sections, the measurement is best-of-three — the simulated
// work is deterministic (every repetition resets the engine to the same
// seed), so repetition only shaves scheduler and cache noise off the
// committed baseline and CI comparisons.
func benchStep(kind topology.Kind, rate float64, saturated bool, seed uint64) stepBench {
	const warm, steps, reps = 30_000, 100_000, 3
	w := traffic.UniformRandom(topology.ColumnNodes, rate)
	cfg := network.Config{
		Kind:     kind,
		QoS:      qos.DefaultConfig(w.TotalFlows()),
		Workload: w,
		Seed:     seed,
		// The tick path is what is being timed; skipping lives in Run.
		DisableIdleSkip: true,
	}
	n := network.MustNew(cfg)
	best := stepBench{Topology: kind.String(), Rate: rate, Saturated: saturated}
	for rep := 0; rep < reps; rep++ {
		if rep > 0 {
			if err := n.Reset(cfg); err != nil {
				panic(err)
			}
		}
		n.Run(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		for i := 0; i < steps; i++ {
			n.Step()
		}
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		ns := float64(wall.Nanoseconds()) / steps
		if rep == 0 || ns < best.NsPerCycle {
			best.NsPerCycle = ns
		}
		// The simulation is deterministic, but only the first repetition
		// grows fresh containers; steady-state allocation behaviour is
		// what the gate guards, so keep the quietest repetition's count
		// (any later rep re-runs on pre-grown backing arrays, exactly
		// like a long-lived engine).
		allocs := float64(after.Mallocs-before.Mallocs) / steps
		if rep == 0 || allocs < best.AllocsPerStep {
			best.AllocsPerStep = allocs
		}
	}
	return best
}

// gitHead returns the commit the working tree is at ("-dirty" appended
// when tracked files carry uncommitted changes), or "" outside a
// repository (provenance only — never fails the run).
func gitHead() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return ""
	}
	head := strings.TrimSpace(string(out))
	// A baseline measured from a modified tree must say so: the commit
	// hash alone would claim provenance the working tree doesn't have.
	if diff, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output(); err == nil &&
		len(strings.TrimSpace(string(diff))) > 0 {
		head += "-dirty"
	}
	return head
}

// hostname names the measuring machine.
func hostname() string {
	h, err := os.Hostname()
	if err != nil {
		return ""
	}
	return h
}

// cpuModel reads the CPU model from /proc/cpuinfo (Linux; "" elsewhere).
func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// benchCell times one warmup+measure quick cell with skipping on and off.
func benchCell(kind topology.Kind, rate float64, seed uint64) cellBench {
	run := func(disable bool) float64 {
		w := traffic.UniformRandom(topology.ColumnNodes, rate)
		return bestOf(3, func() {
			n := network.MustNew(network.Config{
				Kind:            kind,
				QoS:             qos.DefaultConfig(w.TotalFlows()),
				Workload:        w,
				Seed:            seed,
				DisableIdleSkip: disable,
			})
			n.WarmupAndMeasure(experiments.QuickParams().Warmup, experiments.QuickParams().Measure)
		})
	}
	skip, tick := run(false), run(true)
	return cellBench{
		Topology:     kind.String(),
		Rate:         rate,
		SkipWallMs:   skip,
		TickWallMs:   tick,
		TickOverSkip: tick / skip,
	}
}

// benchIdleHorizon times a fixed horizon dominated by post-drain idle
// cycles, with skipping on and off.
func benchIdleHorizon(kind topology.Kind, seed uint64) cellBench {
	const rate, stop, horizon = 0.03, 2_000, 200_000
	run := func(disable bool) float64 {
		w := traffic.UniformRandom(topology.ColumnNodes, rate).WithStop(stop)
		return bestOf(3, func() {
			n := network.MustNew(network.Config{
				Kind:            kind,
				QoS:             qos.DefaultConfig(w.TotalFlows()),
				Workload:        w,
				Seed:            seed,
				DisableIdleSkip: disable,
			})
			n.Run(horizon)
		})
	}
	skip, tick := run(false), run(true)
	return cellBench{
		Topology:     kind.String(),
		Rate:         rate,
		SkipWallMs:   skip,
		TickWallMs:   tick,
		TickOverSkip: tick / skip,
	}
}

// bestOf runs fn reps times and returns the fastest wall-clock in
// milliseconds.
func bestOf(reps int, fn func()) float64 {
	best := time.Duration(1 << 62)
	for i := 0; i < reps; i++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return float64(best.Nanoseconds()) / 1e6
}
