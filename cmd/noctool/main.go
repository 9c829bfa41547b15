// Command noctool regenerates the tables and figures of "Topology-aware
// Quality-of-Service Support in Highly Integrated Chip Multiprocessors"
// (Grot, Keckler, Mutlu — WIOSCA 2010) from the tanoq simulator.
//
// Usage:
//
//	noctool <subcommand> [flags] [args]
//	noctool [flags] <experiment>...
//
// Subcommands (each has its own flag set; run `noctool <cmd> -h`):
//
//	sweep <scenario>[#profile]
//	            expand and run a declarative scenario file (.json/.toml,
//	            see internal/scenario; the paper's grids are under
//	            examples/paper/). Files resolve through the layered
//	            pipeline — defaults < include chain < file < the
//	            #profile suffix's [profiles.<name>] patch < TANOQ_SET_*
//	            environment < -quick/-seed/-warmup/-measure < -set
//	            key=value, the one spelling of every other scenario key
//	            (run.retries, telemetry.interval, ...) — and -explain
//	            prints the resolved keys with per-key provenance instead
//	            of running.
//	            With -cache (or cache = true in the scenario's [run]
//	            table) the sweep runs durably: cell results are memoized
//	            in a content-addressed store under -cache-dir, completed cells
//	            are journaled as they finish, SIGINT/SIGTERM drains
//	            in-flight cells and checkpoints before exiting, and
//	            -resume serves the finished rows from the cache and runs
//	            only what is missing — bit-identical to an uninterrupted
//	            run. -cache-verify N re-executes N cached hits and fails
//	            on any divergence. -progress prints throttled ETA lines,
//	            -http ADDR serves live Prometheus /metrics and
//	            /debug/pprof/* while the sweep runs (-http-linger keeps
//	            the endpoint up afterwards), and -timeline PATH writes
//	            per-cell telemetry series when the scenario has a
//	            [telemetry] table.
//
//	degrade <scenario>[#profile]
//	            degradation sweep of a scenario with a [faults] table: run
//	            the faulted grid and a fault-free baseline, and report per
//	            point the delivered fraction, retry/drop counts, victim
//	            slowdown and mean/p99 latency inflation per QoS mode
//	            (-csv prints the rows as CSV)
//
//	timeline <scenario>[#profile]
//	            run a scenario with in-run telemetry probes ([telemetry]
//	            table or -set telemetry.interval=N) and print each cell's
//	            per-interval time series as a compact table, the
//	            per-router VC occupancy heatmap (-heatmap) or JSON
//	            (-json); `sweep -timeline PATH` writes the series to a
//	            .json or .csv file. Probes ride the event calendar, so
//	            results stay bit-identical to an unprobed run
//
//	trace record <scenario>[#profile]   capture a single-cell scenario's
//	            injection stream into a binary trace (-out names the
//	            file) and print its delivery fingerprint
//	trace replay <file>       replay a recorded trace as a first-class
//	            workload in the recorded cell; an open-loop recording
//	            reproduces its fingerprint exactly
//	trace info <file>         print a trace's header and record stats
//	            (-stats adds per-flow record counts and cycle spans);
//	            replay and info take their cell from the trace and
//	            refuse every flag but info's -stats
//
//	version     print the engine version stamp (set at build time via
//	            -ldflags; "dev" otherwise) that is embedded in cache
//	            keys and v2 trace headers
//
// Experiments (no subcommand; shared simulation flags apply):
//
//	fig3     router area overhead per topology
//	fig4a    latency vs injection rate, uniform random
//	fig4b    latency vs injection rate, tornado
//	preempt  Section 5.2 in-saturation packet replay rates
//	table2   hotspot fairness (per-flow throughput dispersion)
//	fig5     preemption rates under adversarial Workloads 1 and 2
//	fig6     preemption slowdown and max-min deviation, Workloads 1 and 2
//	fig7     router energy per flit by hop type
//	chip        chip-level QoS hardware savings of the topology-aware design
//	motivation  Section 1's starvation demonstration (no-QoS vs PVC)
//	ablate      PVC design-parameter sweeps (beyond the paper)
//	closed      closed-loop hotspot clients: per-client completed-request
//	            dispersion and round-trip latency per topology x QoS mode
//	all         the paper's artifacts (fig3..motivation) in paper order
package main

import (
	"fmt"
	"os"
	"slices"
	"strings"

	"tanoq/internal/experiments"
	"tanoq/internal/network"
	"tanoq/internal/topology"
)

func main() {
	args := os.Args[1:]
	if len(args) == 0 {
		usage()
		os.Exit(2)
	}
	var err error
	switch strings.ToLower(args[0]) {
	case "sweep":
		err = sweepMain(args[1:])
	case "degrade":
		err = degradeMain(args[1:])
	case "timeline":
		err = timelineMain(args[1:])
	case "trace":
		err = traceMain(args[1:])
	case "version":
		fmt.Printf("tanoq engine %s\n", network.EngineVersion())
	case "help", "-h", "--help":
		usage()
	default:
		// Anything else is the experiment driver, which keeps the original
		// flags-first syntax (`noctool -quick all`).
		err = experimentsMain(args)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "noctool: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: noctool <subcommand> [flags] [args]
       noctool [flags] <experiment>...

subcommands (run noctool <cmd> -h for that command's flags):
  sweep <scenario>[#profile]    expand and run a scenario file (the paper's
                                grids are in examples/paper/); layered
                                resolution (includes, profiles, TANOQ_SET_*
                                env, -set), -explain provenance, durable
                                -cache/-resume execution
  degrade <scenario>[#profile]  faulted scenario vs fault-free baseline
  timeline <scenario>[#profile] run with telemetry probes; per-interval
                                time-series table, heatmap, JSON
  trace record|replay|info      capture / replay / inspect injection traces
  version                       engine version stamp

experiments: fig3 fig4a fig4b preempt table2 fig5 fig6 fig7 chip motivation
             ablate closed all
`)
}

// experimentNames lists the names run accepts, in usage order.
var experimentNames = []string{"fig3", "fig4a", "fig4b", "preempt", "table2", "fig5", "fig6", "fig7", "chip", "motivation", "ablate", "closed", "all"}

// experimentsMain runs the paper's experiment drivers, preserving the
// original `noctool [flags] <experiment>...` syntax.
func experimentsMain(args []string) error {
	fs := newFlagSet("noctool", "noctool [flags] <experiment>...",
		"experiments: "+strings.Join(experimentNames, " "))
	sim := addSimFlags(fs)
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	fs.Parse(args)
	names := fs.Args()
	if len(names) == 0 {
		usage()
		os.Exit(2)
	}
	// Every name is checked before the first one runs: a typo or a flag
	// after the names must not cost a full experiment before it is
	// reported (flag parsing stops at the first name).
	for i, name := range names {
		name = strings.ToLower(name)
		names[i] = name
		switch name {
		case "sweep", "degrade", "timeline", "trace", "version":
			return fmt.Errorf("subcommand flags now follow the subcommand: noctool %s [flags] ...", name)
		}
		if strings.HasPrefix(name, "-") {
			return fmt.Errorf("unknown experiment %q: experiment flags go before the names (noctool [flags] <experiment>...)", name)
		}
		if !slices.Contains(experimentNames, name) {
			return fmt.Errorf("unknown experiment %q", name)
		}
	}
	if err := sim.check(); err != nil {
		return err
	}
	p := sim.params(explicitFlags(fs))
	if p.Warmup < 0 || p.Measure <= 0 {
		return fmt.Errorf("schedule warmup %d / measure %d invalid", p.Warmup, p.Measure)
	}
	for _, name := range names {
		if err := run(name, p, sim.quick, *csv); err != nil {
			return err
		}
	}
	return nil
}

func run(name string, p experiments.Params, quick, csv bool) error {
	switch name {
	case "fig3":
		rows := experiments.Fig3()
		if csv {
			fmt.Print(experiments.Fig3CSV(rows))
		} else {
			fmt.Println(experiments.RenderFig3(rows))
		}
	case "fig4a", "fig4b":
		pattern := experiments.Uniform
		if name == "fig4b" {
			pattern = experiments.TornadoPattern
		}
		rates := experiments.DefaultFig4Rates()
		if quick {
			rates = experiments.QuickFig4Rates()
		}
		series := experiments.Fig4(pattern, rates, p)
		if csv {
			fmt.Print(experiments.Fig4CSV(series))
		} else {
			fmt.Println(experiments.RenderFig4(pattern, series))
		}
	case "preempt":
		fmt.Println(experiments.RenderSaturationPreemptions(experiments.SaturationPreemptions(p)))
	case "table2":
		tp := experiments.Table2Params()
		if quick {
			tp = p
		}
		tp.Seed = p.Seed
		tp.Workers = p.Workers
		rows := experiments.Table2(tp)
		if csv {
			fmt.Print(experiments.Table2CSV(rows))
		} else {
			fmt.Println(experiments.RenderTable2(rows))
		}
	case "fig5":
		for _, wl := range []experiments.Adversarial{experiments.Workload1, experiments.Workload2} {
			rows := experiments.Fig5(wl, p)
			if csv {
				fmt.Print(experiments.Fig5CSV(rows))
			} else {
				fmt.Println(experiments.RenderFig5(wl, rows))
			}
		}
	case "fig6":
		for _, wl := range []experiments.Adversarial{experiments.Workload1, experiments.Workload2} {
			rows := experiments.Fig6(wl, p)
			if csv {
				fmt.Print(experiments.Fig6CSV(rows))
			} else {
				fmt.Println(experiments.RenderFig6(wl, rows))
			}
		}
	case "fig7":
		rows := experiments.Fig7()
		if csv {
			fmt.Print(experiments.Fig7CSV(rows))
		} else {
			fmt.Println(experiments.RenderFig7(rows))
		}
	case "chip":
		fmt.Println(experiments.RenderChipCost(experiments.ChipCost()))
	case "closed":
		rows := experiments.ClosedLoop(p)
		if csv {
			fmt.Print(experiments.ClosedLoopCSV(rows))
		} else {
			fmt.Println(experiments.RenderClosedLoop(rows))
		}
	case "motivation":
		rows := experiments.Motivation(topology.MeshX1, p)
		fmt.Println(experiments.RenderMotivation(topology.MeshX1, rows))
	case "ablate":
		fmt.Println(experiments.RenderAblation(
			"Ablation: PVC frame duration (hotspot fairness, DPS)", "frame",
			experiments.AblateFrame(topology.DPS, experiments.DefaultFrameSweep, p)))
		fmt.Println(experiments.RenderAblation(
			"Ablation: priority quantum (hotspot fairness, DPS)", "quantum",
			experiments.AblateQuantum(topology.DPS, experiments.DefaultQuantumSweep, p)))
		fmt.Println(experiments.RenderAblation(
			"Ablation: retransmission window (single fast distant flow, mesh x1)", "window",
			experiments.AblateWindow(topology.MeshX1, experiments.DefaultWindowSweep, p)))
		fmt.Println(experiments.RenderMarginAblation(
			experiments.AblateMargin(topology.MeshX1, experiments.DefaultMarginSweep, p)))
		fmt.Println(experiments.RenderQuotaAblation(
			experiments.AblateQuota(topology.MeshX1, p)))
	case "all":
		for _, e := range []string{"fig3", "fig4a", "fig4b", "preempt", "table2", "fig5", "fig6", "fig7", "chip", "motivation"} {
			if err := run(e, p, quick, csv); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("unknown experiment %q", name)
	}
	return nil
}
