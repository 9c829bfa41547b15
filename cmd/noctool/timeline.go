package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"tanoq/internal/scenario"
	"tanoq/internal/telemetry"
)

// timelineOpts carries the timeline subcommand's CLI state.
type timelineOpts struct {
	layers  layerOpts
	heatmap bool
	asJSON  bool
}

// timelineMain parses the timeline subcommand's flags and runs it.
func timelineMain(args []string) error {
	fs := newFlagSet("timeline", "noctool timeline [flags] <scenario>[#profile]",
		`Run a scenario with in-run telemetry probes and print each cell's
per-interval time series as a compact table (or the per-router VC
occupancy heatmap with -heatmap). The scenario's [telemetry] table
selects interval and series; -set telemetry.interval=N adds probes to a
scenario without one. Probes ride the event calendar, so the simulation
results are bit-identical to an unprobed run.`)
	layers := addLayerFlags(fs, "")
	heatmap := fs.Bool("heatmap", false, "emit the per-router occupancy heatmap matrix (CSV) instead of the table")
	asJSON := fs.Bool("json", false, "emit timelines as JSON instead of the table")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("timeline needs exactly one scenario file")
	}
	return runTimeline(fs.Arg(0), timelineOpts{
		layers: layers(), heatmap: *heatmap, asJSON: *asJSON,
	})
}

// runTimeline resolves the scenario, runs the grid with its telemetry
// table armed and renders each cell's timeline.
func runTimeline(path string, o timelineOpts) error {
	sc, _, err := loadLayered(path, o.layers)
	if err != nil {
		return err
	}
	if sc.Cache {
		return fmt.Errorf("scenario %q sets cache = true in [run]: timeline opens no store, and a cached row carries no series", path)
	}
	if sc.Telemetry == nil {
		return fmt.Errorf("scenario %q has no [telemetry] table: add one or pass -set telemetry.interval=N", path)
	}
	if o.heatmap && len(sc.Telemetry.Series) > 0 && !slices.Contains(sc.Telemetry.Series, telemetry.SeriesHeatmap) {
		sc.Telemetry.Series = append(sc.Telemetry.Series, telemetry.SeriesHeatmap)
	}
	grid, err := sc.Grid()
	if err != nil {
		return err
	}
	rep, err := grid.RunDurable(context.Background(), o.layers.runOpts(sc))
	if err != nil {
		return err
	}
	results := rep.Results

	if o.asJSON {
		blob, err := timelineJSON(results)
		if err != nil {
			return err
		}
		os.Stdout.Write(blob)
		return nil
	}
	for _, r := range results {
		if r.Error != "" {
			fmt.Printf("# %s: FAILED: %s\n", pointLabel(r), r.Error)
			continue
		}
		if r.Timeline == nil {
			continue
		}
		fmt.Printf("# %s\n", pointLabel(r))
		var err error
		if o.heatmap {
			err = r.Timeline.WriteHeatmap(os.Stdout)
		} else {
			err = r.Timeline.WriteTable(os.Stdout)
		}
		if err != nil {
			return err
		}
		fmt.Println()
	}
	return nil
}

// pointLabel names one grid cell for timeline output.
func pointLabel(r scenario.Result) string {
	return fmt.Sprintf("%s/%s/%s/%s/seed%d/rate%g",
		r.Workload, r.Pattern, r.Topology, r.Mode, r.Seed, r.Rate)
}

// timelineJSON marshals every probed cell as {label, timeline}.
func timelineJSON(results []scenario.Result) ([]byte, error) {
	type row struct {
		Label    string              `json:"label"`
		Timeline *telemetry.Timeline `json:"timeline"`
	}
	rows := make([]row, 0, len(results))
	for _, r := range results {
		if r.Timeline == nil {
			continue
		}
		rows = append(rows, row{Label: pointLabel(r), Timeline: r.Timeline})
	}
	blob, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(blob, '\n'), nil
}

// writeTimelines emits the probed cells' timelines to path for `noctool
// sweep -timeline`: .json for the JSON array `timeline -json` prints, .csv
// for the long-format per-interval rows.
func writeTimelines(path string, results []scenario.Result) error {
	if filepath.Ext(path) == ".json" {
		blob, err := timelineJSON(results)
		if err != nil {
			return err
		}
		return os.WriteFile(path, blob, 0o644)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeTimelineCSV(f, results); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkTimelineOut is what sweep runs before the grid when it will call
// writeTimelines: the path must carry one of the two extensions that pick
// the format, and be writable.
func checkTimelineOut(path string) error {
	if ext := filepath.Ext(path); ext != ".json" && ext != ".csv" {
		return fmt.Errorf("timeline output %q: want a .json or .csv extension", path)
	}
	return checkWritable("timeline output", path)
}

func writeTimelineCSV(w io.Writer, results []scenario.Result) error {
	if _, err := io.WriteString(w, telemetry.CSVHeader); err != nil {
		return err
	}
	for _, r := range results {
		if r.Timeline == nil {
			continue
		}
		if err := r.Timeline.WriteCSV(w, pointLabel(r)); err != nil {
			return err
		}
	}
	return nil
}
