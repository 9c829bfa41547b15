package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/workload"
)

// traceMain parses the trace subcommand's flags and dispatches its verb.
func traceMain(args []string) error {
	fs := newFlagSet("trace", "noctool trace [flags] record <scenario>[#profile] | replay <file> | info <file>",
		`record captures a single-cell scenario's injection stream into a binary
trace and prints its delivery fingerprint (scenario files resolve through
the same layered pipeline as sweep); replay re-runs a recorded trace in
the recorded cell; info prints a trace's header and record stats
(-stats adds a per-flow breakdown of record counts and cycle spans).
replay and info read their cell from the trace, so they take no flag but
info's -stats.`)
	layers := addLayerFlags(fs, "record: ")
	out := fs.String("out", "", "record: output path for the recorded trace")
	stats := fs.Bool("stats", false, "info: print per-flow record counts and cycle spans")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		return fmt.Errorf("trace needs a verb and a target: trace record <scenario> | trace replay <file> | trace info <file>")
	}
	verb, target := fs.Arg(0), fs.Arg(1)
	if verb != "record" && verb != "replay" && verb != "info" {
		return fmt.Errorf("trace: unknown verb %q (want record, replay or info)", verb)
	}
	// A flag the verb does not read is refused, not ignored: a replay
	// handed -seed would otherwise run the recorded seed and say nothing.
	var unread error
	fs.Visit(func(f *flag.Flag) {
		takes := f.Name != "stats" // record reads every flag but -stats
		if verb != "record" {
			takes = verb == "info" && f.Name == "stats"
		}
		if !takes && unread == nil {
			unread = fmt.Errorf("trace %s does not take -%s", verb, f.Name)
		}
	})
	if unread != nil {
		return unread
	}
	switch verb {
	case "record":
		return runTraceRecord(target, layers(), *out)
	case "replay":
		return runTraceReplay(target)
	default:
		return runTraceInfo(target, *stats)
	}
}

// runCell runs one cell through the runner and returns its result, or
// the cell's failure as an error. There are no retries: a retry would run
// the cell's Setup again, and record's Setup attaches a recorder that
// must see exactly one run.
func runCell(cell runner.Cell) (runner.Result, error) {
	res := runner.RunCellsCtx(context.Background(), []runner.Cell{cell}, runner.Options{Workers: 1})[0]
	return res, res.Err
}

// runTraceRecord resolves a single-cell scenario through the same layered
// pipeline as sweep, runs it with a recorder attached and writes the
// captured injection stream to out (default <name>.trace) as a binary
// trace whose header carries the cell (topology, QoS, overrides, seed,
// schedule, faults) — so the trace replays self-contained. The printed
// fingerprint is what `trace replay` must reproduce
// (TestTraceRecordReplaysFingerprint compares the two).
//
// A cell the watchdog trips still writes its trace — every generation up
// to the trip, which is the repro trace: replaying it wedges at the same
// cycle — and then fails with the runner's error. A cell that fails any
// other way writes nothing.
func runTraceRecord(scenarioArg string, lo layerOpts, out string) error {
	sc, _, err := loadLayered(scenarioArg, lo)
	if err != nil {
		return err
	}
	grid, err := sc.Grid()
	if err != nil {
		return err
	}
	if grid.Size() != 1 {
		return fmt.Errorf("trace record needs a single-cell scenario, got %d cells — narrow the axes (one pattern/topology/qos/seed/rate)", grid.Size())
	}
	cell := grid.Cell(0)
	rec := &workload.Recorder{}
	setup := cell.Setup
	cell.Setup = func(n *network.Network) any {
		var aux any
		if setup != nil {
			aux = setup(n)
		}
		rec.Attach(n)
		return aux
	}
	res, err := runCell(cell)
	var wedged *network.WatchdogError
	if err != nil && !errors.As(err, &wedged) {
		return fmt.Errorf("trace record: %w", err)
	}

	point := grid.Points[0]
	tr := rec.Trace(workload.TraceHeader{
		Nodes:         cell.Config.Nodes,
		Topology:      point.Topology.String(),
		QoS:           point.Mode.String(),
		Seed:          point.Seed,
		Warmup:        cell.Warmup,
		Measure:       cell.Measure,
		FrameCycles:   int(sc.FrameCycles),
		WindowPackets: sc.WindowPackets,
		QuantumFlits:  sc.QuantumFlits,
		MarginClasses: sc.MarginClasses,
		// A faulted cell's configuration rides along in the version-2
		// header, so replays reproduce the same fault schedule.
		Faults:         cell.Config.Faults.Windows,
		RetryTimeout:   cell.Config.Faults.RetryTimeout,
		MaxRetries:     cell.Config.Faults.MaxRetries,
		WatchdogCycles: cell.Config.WatchdogCycles,
		// The recording engine's version stamp rides in the version-2
		// header; fault-free captures encode as version 1 and drop it.
		Engine: network.EngineVersion(),
	})
	if out == "" {
		out = sc.Name + ".trace"
	}
	blob := tr.Encode()
	if err := os.WriteFile(out, blob, 0o644); err != nil {
		return err
	}
	if wedged != nil {
		fmt.Printf("recorded repro trace %s: %d records up to the watchdog trip at cycle %d (%d bytes)\n",
			out, rec.Len(), wedged.Report.At, len(blob))
		return fmt.Errorf("trace record: %w", err)
	}
	fmt.Printf("recorded %s: %d records over cycles 0..%d (%d bytes, %.1f bytes/record)\n",
		out, rec.Len(), res.End, len(blob), float64(len(blob))/float64(max(rec.Len(), 1)))
	fmt.Printf("cell: %s %s nodes=%d seed=%d warmup=%d measure=%d\n",
		point.Topology, point.Mode, cell.Config.Nodes, point.Seed, cell.Warmup, cell.Measure)
	fmt.Printf("fingerprint: %s\n", workload.Fingerprint(res.Stats, res.End))
	return nil
}

// runTraceReplay rebuilds the recorded cell from the trace header, runs
// the replay workload through the recorded schedule and prints the
// delivery fingerprint. For an open-loop recording the fingerprint equals
// the recorded run's exactly.
func runTraceReplay(path string) error {
	name := "replay:" + strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	hdr, w, err := workload.ReadReplayFile(path, name)
	if err != nil {
		return err
	}
	cfg, warmup, measure, err := hdr.Cell(w)
	if err != nil {
		return err
	}
	res, err := runCell(runner.Cell{Config: cfg, Warmup: warmup, Measure: measure})
	if err != nil {
		return fmt.Errorf("trace replay: %w", err)
	}
	records := 0
	for _, s := range w.Specs {
		records += len(s.Replay.Events)
	}
	st := res.Stats
	fmt.Printf("replayed %s: %d records, delivered %d packets, mean latency %.1f cycles\n",
		path, records, st.TotalDelivered, st.MeanLatency())
	fmt.Printf("cell: %s %s nodes=%d seed=%d warmup=%d measure=%d\n",
		hdr.Topology, hdr.QoS, hdr.Nodes, hdr.Seed, warmup, measure)
	fmt.Printf("fingerprint: %s\n", workload.Fingerprint(st, res.End))
	return nil
}

// runTraceInfo prints a trace's header and record statistics without
// running anything; -stats adds a per-flow breakdown (record count,
// flits, cycle span) sorted by flow id.
func runTraceInfo(path string, stats bool) error {
	tr, err := workload.ReadTraceFile(path)
	if err != nil {
		return err
	}
	h := tr.Header
	fmt.Printf("%s: %d records\n", path, len(tr.Records))
	fmt.Printf("cell: %s %s nodes=%d seed=%d warmup=%d measure=%d\n",
		h.Topology, h.QoS, h.Nodes, h.Seed, h.Warmup, h.Measure)
	if h.FrameCycles != 0 || h.WindowPackets != 0 || h.QuantumFlits != 0 || h.MarginClasses != 0 {
		fmt.Printf("qos overrides: frame=%d window=%d quantum=%d margin=%d\n",
			h.FrameCycles, h.WindowPackets, h.QuantumFlits, h.MarginClasses)
	}
	if h.RetryTimeout != 0 || h.MaxRetries != 0 || h.WatchdogCycles != 0 {
		fmt.Printf("recovery: retry_timeout=%d max_retries=%d watchdog=%d\n",
			h.RetryTimeout, h.MaxRetries, h.WatchdogCycles)
	}
	for _, w := range h.Faults {
		fmt.Printf("fault: %s\n", w)
	}
	if len(tr.Records) == 0 {
		return nil
	}
	flows := map[noc.FlowID]int{}
	classes := map[noc.Class]int{}
	var flits int
	for _, r := range tr.Records {
		flows[r.Flow]++
		classes[r.Class]++
		flits += r.Class.Flits()
	}
	first, last := tr.Records[0].At, tr.Records[len(tr.Records)-1].At
	span := last - first + 1
	fmt.Printf("cycles %d..%d, %d active flows, %d requests / %d replies, %d flits (%.4f flits/cycle)\n",
		first, last, len(flows), classes[noc.ClassRequest], classes[noc.ClassReply],
		flits, float64(flits)/float64(span))
	if stats {
		printFlowStats(tr)
	}
	return nil
}

// printFlowStats renders the -stats per-flow table: records are grouped
// by flow and the injection stream is scanned once per table to keep
// the records slice streaming-friendly.
func printFlowStats(tr *workload.Trace) {
	type flowStat struct {
		records, flits int
		first, last    sim.Cycle
	}
	stats := map[noc.FlowID]*flowStat{}
	var ids []noc.FlowID
	for _, r := range tr.Records {
		s := stats[r.Flow]
		if s == nil {
			s = &flowStat{first: r.At, last: r.At}
			stats[r.Flow] = s
			ids = append(ids, r.Flow)
		}
		s.records++
		s.flits += r.Class.Flits()
		if r.At < s.first {
			s.first = r.At
		}
		if r.At > s.last {
			s.last = r.At
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	fmt.Printf("%6s %9s %9s %11s %11s %10s\n", "flow", "records", "flits", "first", "last", "span")
	for _, id := range ids {
		s := stats[id]
		fmt.Printf("%6d %9d %9d %11d %11d %10d\n",
			id, s.records, s.flits, s.first, s.last, s.last-s.first+1)
	}
}
