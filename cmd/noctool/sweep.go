package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"tanoq/internal/runner"
	"tanoq/internal/scenario"
	"tanoq/internal/store"
)

// sweepOpts carries the CLI state the sweep subcommand layers over a
// scenario file: the resolver layers (profile, env, schedule flags,
// -set), output format, and the cache knobs, which never change results,
// only whether cells execute. The per-cell deadline and retry budget are
// scenario keys ([run], set with -set run.deadline_ms=...).
type sweepOpts struct {
	layers  layerOpts
	csv     bool
	outPath string
	explain bool

	cache    bool
	cacheDir string
	resume   bool
	verify   int

	httpAddr     string
	httpLinger   time.Duration
	progress     bool
	timelinePath string
	onCell       func(scenario.CellEvent)
}

// sweepMain parses the sweep subcommand's flags and runs the sweep under
// an interrupt handler: the first SIGINT/SIGTERM cancels the grid — no
// new cells are issued, in-flight cells drain and checkpoint, and the
// partial output is finished — and a second exits immediately.
func sweepMain(args []string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-sig:
		case <-done:
			return
		}
		fmt.Fprintln(os.Stderr, "sweep: interrupt — draining in-flight cells and checkpointing (interrupt again to exit now)")
		cancel()
		select {
		case <-sig:
			os.Exit(130)
		case <-done:
		}
	}()
	return sweepCtx(ctx, args, nil)
}

// sweepCtx is sweepMain under ctx, with onCell (nil = none) observing
// every finished cell beside -progress and -http: a test cancels ctx
// from it to interrupt a sweep at a cell boundary.
func sweepCtx(ctx context.Context, args []string, onCell func(scenario.CellEvent)) error {
	fs := newFlagSet("sweep", "noctool sweep [flags] <scenario>[#profile]",
		`Expand and run a declarative scenario file (.json/.toml; the paper's
grids are under examples/paper/). Files resolve through the layered
pipeline — defaults < include chain < file < profile < TANOQ_SET_* env <
schedule flags < -set — and -explain prints every resolved key with its
provenance.`)
	layers := addLayerFlags(fs, "")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	out := fs.String("out", "", "output path for the sweep's JSON report")
	explain := fs.Bool("explain", false, "print the resolved scenario with per-key provenance instead of running")
	cache := fs.Bool("cache", false, "memoize cell results in the content-addressed store")
	cacheDir := fs.String("cache-dir", store.DefaultDir, "result store directory")
	resume := fs.Bool("resume", false, "resume an interrupted sweep from the cache (implies -cache)")
	cacheVerify := fs.Int("cache-verify", 0, "re-execute up to N cached hits and fail on divergence")
	httpAddr := fs.String("http", "", "serve live Prometheus /metrics and /debug/pprof on `addr` while the sweep runs")
	httpLinger := fs.Duration("http-linger", 0, "keep the -http endpoint up this long after the sweep finishes")
	progress := fs.Bool("progress", false, "print throttled progress lines with an ETA to stderr")
	timeline := fs.String("timeline", "", "write per-cell telemetry timelines to `path` (.json or .csv; needs a [telemetry] table)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("sweep needs exactly one scenario file")
	}
	return runSweep(ctx, fs.Arg(0), sweepOpts{
		layers: layers(), csv: *csv, outPath: *out, explain: *explain,
		cache: *cache, cacheDir: *cacheDir, resume: *resume, verify: *cacheVerify,
		httpAddr: *httpAddr, httpLinger: *httpLinger, progress: *progress,
		timelinePath: *timeline, onCell: onCell,
	})
}

// degradeMain parses the degrade subcommand's flags and runs the
// degradation sweep.
func degradeMain(args []string) error {
	fs := newFlagSet("degrade", "noctool degrade [flags] <scenario>[#profile]",
		`Run a scenario with a [faults] table against its fault-free baseline
and report per point the delivered fraction, retry/drop counts, victim
slowdown and latency inflation per QoS mode. Scenario files resolve
through the same layered pipeline as sweep.`)
	layers := addLayerFlags(fs, "")
	csv := fs.Bool("csv", false, "emit CSV instead of tables")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("degrade needs exactly one scenario file with a [faults] table")
	}
	return runDegrade(fs.Arg(0), sweepOpts{layers: layers(), csv: *csv})
}

// runSweep resolves a scenario through the layer pipeline, expands the
// sweep grid and streams it through Grid.Stream, writing the table or CSV
// to stdout a chunk of rows at a time as the grid runs (and the JSON
// report to -out once the sweep finishes clean). A cancelled ctx is an
// interrupt: the rows of cells never run print as skipped, an interrupted
// marker follows the last row, and -out is not written.
//
// Every sweep goes through the one grid executor, as degrade and timeline
// do: without -cache it keys nothing and runs every cell; with -cache (or
// cache = true in the scenario's [run] table) finished rows are
// checkpointed to the content-addressed store as they land, and -resume
// serves them back without simulating.
func runSweep(ctx context.Context, path string, o sweepOpts) error {
	sc, res, err := loadLayered(path, o.layers)
	if err != nil {
		return err
	}
	if o.explain {
		fmt.Print(res.Explain())
		return nil
	}
	if o.verify < 0 {
		return fmt.Errorf("-cache-verify %d: want the number of cached hits to re-execute (0 = none)", o.verify)
	}
	// Verification samples cache hits, so without a store it would check
	// nothing and report success.
	durable := o.cache || o.resume || sc.Cache
	if o.verify > 0 && !durable {
		return fmt.Errorf("-cache-verify needs -cache, -resume or cache = true in [run]")
	}
	// An output the run could not write is refused now, not after the grid.
	if o.timelinePath != "" {
		if sc.Telemetry == nil {
			return fmt.Errorf("-timeline needs a [telemetry] table in scenario %q (-set telemetry.interval=N probes a scenario without one)", path)
		}
		if err := checkTimelineOut(o.timelinePath); err != nil {
			return err
		}
	}
	if err := checkWritable("-out", o.outPath); err != nil {
		return err
	}
	grid, err := sc.Grid()
	if err != nil {
		return err
	}

	opts := o.layers.runOpts(sc)
	opts.VerifySample = o.verify
	opts.OnCell = o.onCell

	// Live accounting: the /metrics endpoint and the -progress printer
	// share one sweepMetrics instance fed from the per-cell completion
	// callback. Observability never changes what executes — OnCell only
	// observes results as they land.
	var metrics *sweepMetrics
	var prog *progressPrinter
	if o.httpAddr != "" || o.progress {
		metrics = newSweepMetrics(len(grid.Points), runner.Workers(opts.Workers))
		observers := []func(scenario.CellEvent){metrics.onCell}
		if o.progress {
			prog = &progressPrinter{m: metrics}
			observers = append(observers, prog.onCell)
		}
		if o.onCell != nil {
			observers = append(observers, o.onCell)
		}
		opts.OnCell = func(ev scenario.CellEvent) {
			for _, fn := range observers {
				fn(ev)
			}
		}
		if o.httpAddr != "" {
			stop, err := serveMetrics(metrics, o.httpAddr, o.httpLinger)
			if err != nil {
				return err
			}
			defer stop()
		}
	}

	if durable {
		st, err := store.Open(o.cacheDir)
		if err != nil {
			return err
		}
		opts.Store = st
		jr, err := store.OpenJournal(filepath.Join(o.cacheDir, "journal"))
		if err != nil {
			return err
		}
		defer jr.Close()
		opts.Journal = jr
	}

	// The JSON report streams into a temp file beside its target, which
	// only a clean finish renames into place.
	var report *os.File
	var reportRows *scenario.RowWriter
	if o.outPath != "" {
		// Named for this process, created with the mode os.WriteFile gives.
		tmp := fmt.Sprintf("%s.%d.tmp", o.outPath, os.Getpid())
		report, err = os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return fmt.Errorf("-out: %w", err)
		}
		defer func() {
			if report != nil {
				report.Close()
				os.Remove(report.Name())
			}
		}()
		reportRows = scenario.NewJSONWriter(report, sc.Name)
	}
	var rows *scenario.RowWriter
	if o.csv {
		rows = scenario.NewCSVWriter(os.Stdout, sc.Name)
	} else {
		rows = scenario.NewTableWriter(os.Stdout, sc.Name, grid.Size())
	}
	var timelines []scenario.Result // the probed rows, all -timeline reads
	rep, err := grid.Stream(ctx, opts, func(_ int, chunk []scenario.Result) error {
		if err := rows.Write(chunk); err != nil {
			return err
		}
		if reportRows != nil {
			if err := reportRows.Write(chunk); err != nil {
				return err
			}
		}
		if o.timelinePath != "" {
			for _, r := range chunk {
				if r.Timeline != nil {
					timelines = append(timelines, r)
				}
			}
		}
		return nil
	})
	if prog != nil {
		prog.Close()
	}
	if rep == nil {
		return err // the sweep failed before its first row
	}
	if cerr := rows.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if !o.csv {
		fmt.Println()
	}
	if rep.Interrupted {
		// The marker rides only on interrupted output, after its last row:
		// a resumed run finishes clean, so its table diffs bit-identical
		// against an uninterrupted one.
		fmt.Println("# interrupted: partial results — finished cells are checkpointed, re-run with -resume")
	}
	if err != nil {
		return err // a checkpoint or write failure, after the rows that made it out
	}

	if o.timelinePath != "" {
		if err := writeTimelines(o.timelinePath, timelines); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", o.timelinePath)
	}
	if report != nil {
		if rep.Interrupted {
			fmt.Fprintf(os.Stderr, "sweep: not writing %s (sweep interrupted)\n", o.outPath)
		} else {
			if err := commitReport(report, reportRows, o.outPath); err != nil {
				return err
			}
			report = nil
			fmt.Fprintf(os.Stderr, "sweep: wrote %s\n", o.outPath)
		}
	}
	cells := grid.Size()
	if opts.Store != nil {
		// FAILED rows used to be invisible here until the table printed;
		// the %d failed field folds them into the one-line accounting.
		fmt.Fprintf(os.Stderr, "sweep: %d cells: %d cached, executed %d, %d failed, skipped %d (cache %s)\n",
			cells, rep.Hits, rep.Executed, rep.Failed, rep.Skipped, o.cacheDir)
		if o.verify > 0 {
			fmt.Fprintf(os.Stderr, "sweep: cache-verify: %d verified, %d diverged\n",
				rep.Verified, len(rep.VerifyBad))
		}
	}
	if len(rep.VerifyBad) > 0 {
		return fmt.Errorf("cache verification failed:\n  %s", strings.Join(rep.VerifyBad, "\n  "))
	}
	if rep.Interrupted {
		done := cells - rep.Skipped
		if opts.Store != nil {
			return fmt.Errorf("sweep interrupted: %d of %d cells finished and checkpointed; re-run with -resume to continue", done, cells)
		}
		return fmt.Errorf("sweep interrupted: %d of %d cells finished (run with -cache to make interruptions resumable)", done, cells)
	}
	return nil
}

// commitReport ends the JSON report streamed into the temp file f and
// renames it to path.
func commitReport(f *os.File, rows *scenario.RowWriter, path string) error {
	if err := rows.Close(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}

// runDegrade runs the degradation sweep of a faulted scenario: the grid
// as written plus a fault-free baseline, joined per point to report
// delivered fraction, victim slowdown and latency inflation per QoS mode
// (-csv prints the rows as CSV).
func runDegrade(path string, o sweepOpts) error {
	sc, _, err := loadLayered(path, o.layers)
	if err != nil {
		return err
	}
	if sc.Cache {
		return fmt.Errorf("scenario %q sets cache = true in [run]: degrade opens no store (noctool sweep caches rows)", path)
	}
	rows, err := scenario.Degrade(context.Background(), sc, o.layers.runOpts(sc))
	if err != nil {
		return err
	}
	if o.csv {
		fmt.Print(scenario.DegradeCSV(sc.Name, rows))
	} else {
		fmt.Println(scenario.RenderDegrade(sc.Name, rows))
	}
	return nil
}

// checkWritable reports whether the file a flag names ("" = flag unset)
// can be created or opened for writing, without truncating an existing
// file or leaving a new one behind: outputs land as or after the grid
// runs, and a run must not be what discovers a missing directory.
func checkWritable(flagName, path string) error {
	if path == "" {
		return nil
	}
	_, statErr := os.Stat(path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return fmt.Errorf("%s: %w", flagName, err)
	}
	f.Close()
	if os.IsNotExist(statErr) {
		_ = os.Remove(path) // best effort: the run's own write recreates it
	}
	return nil
}
