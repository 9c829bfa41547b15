package scenario

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// Point labels one cell of an expanded sweep grid.
type Point struct {
	// Pattern is the synthetic pattern name, or "flows" for explicit
	// injector lists.
	Pattern  string
	Topology topology.Kind
	Mode     qos.Mode
	Seed     uint64
	// Rate is the per-injector offered load of the point; explicit-flows
	// scenarios report their aggregate offered load instead. Closed-loop
	// and replay cells have no offered-load axis and report zero.
	Rate float64
	// Workload is the cell's workload class: "open", "closed", or
	// "replay:<trace>" for trace-replay cells.
	Workload string
	// Outstanding and Think are the closed-loop axes (zero elsewhere).
	Outstanding int
	Think       float64
	// RetryTimeout and MaxRetries are the end-to-end recovery axes from
	// the [faults] table (zero when the scenario arms no recovery).
	RetryTimeout sim.Cycle
	MaxRetries   int
}

// Grid is a fully-expanded scenario: the cross product of the sweep axes
// (pattern × topology × qos × seed × rate), one independent simulation
// cell per point, in that nesting order — the same cell layout the
// paper's experiment drivers use, which is what makes a scenario file
// reproduce them bit-identically. A grid holds points, not cells: Cell
// builds a point's runner cell when a worker claims it.
type Grid struct {
	Scenario *Scenario
	Points   []Point
	// pts is Points followed by the points of the hidden victim-only
	// reference cells (one per topology × qos × seed when the scenario
	// declares victim roles), run alongside the grid to anchor the
	// victim-slowdown metric. They produce no result rows of their own.
	// meta runs parallel to pts.
	pts  []Point
	meta []cellMeta
	// loads is the grid's table of shared workloads: one per (pattern,
	// rate), closed-loop pattern, trace, or flow list and its victims.
	loads []gridLoad
	// qos is the QoS configuration every cell shares, its Rates vector
	// included; a cell sets only its point's Mode.
	qos qos.Config
	// tick runs every cell through each cycle instead of skipping idle
	// windows (network.Config.DisableIdleSkip); tests set it.
	tick bool
}

// cellMeta is what a cell needs beyond its point: its kind, its entry in
// the grid's workload table, and the pts index of the reference cell its
// victims' slowdown is measured against (-1 without victims).
type cellMeta struct {
	kind kinds
	load int32
	ref  int32
}

// gridLoad is one workload the cells of a grid share, and what they
// derive from it: the flows the fairness dispersion is computed over
// (open/flows/replay cells; closed cells disperse over clients), the
// victim flows, the closed-loop request pattern, and the resolved path of
// a replay trace, whose digest the result cache folds into the key.
type gridLoad struct {
	w       traffic.Workload
	active  []noc.FlowID
	victims []noc.FlowID
	pattern traffic.Pattern
	trace   string
}

// cellAux bundles what a telemetry-armed cell's Setup returns: the
// inner attachment (the closed-loop controller, or nil) plus the
// sampler whose timeline the row derivation surfaces.
type cellAux struct {
	inner   any
	sampler *telemetry.Sampler
}

// armTelemetry wraps a visible cell's Setup to attach an in-run sampler
// when the scenario declares a [telemetry] table. Attachment happens
// per execution on the freshly-reset engine, exactly like the
// closed-loop controller, so probed cells stay bit-identical across
// workers and idle-skip. Hidden victim reference cells are never armed
// — their rows are internal baselines.
func armTelemetry(cell *runner.Cell, sc *Scenario) {
	tcfg := sc.Telemetry
	if tcfg == nil {
		return
	}
	opts := telemetry.Options{
		Interval: tcfg.Interval,
		Horizon:  sim.Cycle(sc.Warmup + sc.Measure),
		TopFlows: tcfg.TopFlows,
		Series:   tcfg.Series,
	}
	inner := cell.Setup
	cell.Setup = func(n *network.Network) any {
		var aux any
		if inner != nil {
			aux = inner(n)
		}
		return &cellAux{inner: aux, sampler: telemetry.Attach(n, opts)}
	}
}

// activeFlows lists the flows a workload actually injects on.
func activeFlows(w traffic.Workload) []noc.FlowID {
	var out []noc.FlowID
	for _, s := range w.Specs {
		if s.Rate > 0 || s.Replay != nil {
			out = append(out, s.Flow)
		}
	}
	return out
}

// Grid expands the scenario into its run grid: the shared workloads
// first, then one point and one meta per cell, allocated at exact size.
func (sc *Scenario) Grid() (*Grid, error) {
	visible, refs := sc.size()
	g := &Grid{Scenario: sc, qos: sc.qosConfig(),
		pts: make([]Point, 0, visible+refs), meta: make([]cellMeta, 0, visible+refs)}
	switch {
	case len(sc.Traces) > 0:
		if err := g.expandTraces(); err != nil {
			return nil, err
		}
	case len(sc.Flows) > 0:
		w := sc.flowWorkload()
		fl := g.load(gridLoad{w: w, active: activeFlows(w), victims: sc.victimFlows()})
		offered := w.OfferedLoad()
		var refPts []Point
		vl := int32(-1)
		if refs > 0 {
			vl = g.load(gridLoad{w: sc.victimWorkload(), victims: g.loads[fl].victims})
		}
		sc.fan(func(p Point) {
			ref := int32(-1)
			if vl >= 0 {
				// One clean victim-only reference per topology × qos ×
				// seed, shared across that point's fault axes.
				ref = int32(visible + len(refPts))
				refPts = append(refPts, p)
			}
			p.Pattern, p.Rate, p.Workload = "flows", offered, "open"
			sc.fanFaults(p, func(p Point) { g.add(p, cellMeta{kind: kFlows, load: fl, ref: ref}) })
		})
		for _, p := range refPts {
			g.add(p, cellMeta{kind: kVictimRef, load: vl, ref: -1})
		}
	default:
		for _, pat := range sc.Patterns {
			for _, wmode := range sc.WorkloadModes {
				if wmode == "closed" {
					if err := g.expandClosed(pat); err != nil {
						return nil, err
					}
					continue
				}
				// Workloads depend only on (pattern, rate); Dest pickers are
				// stateless and safe to share across the cells of the
				// topology × mode × seed fan-out.
				first := int32(len(g.loads))
				for _, rate := range sc.Rates {
					w, err := sc.workload(pat, rate)
					if err != nil {
						return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
					}
					g.load(gridLoad{w: w, active: activeFlows(w)})
				}
				sc.fan(func(p Point) {
					p.Pattern, p.Workload = pat, "open"
					for ri, rate := range sc.Rates {
						p.Rate = rate
						sc.fanFaults(p, func(p Point) { g.add(p, cellMeta{kind: kOpen, load: first + int32(ri), ref: -1}) })
					}
				})
			}
		}
	}
	g.Points = g.pts[:visible:visible]
	return g, nil
}

// add appends one cell's point and meta.
func (g *Grid) add(p Point, m cellMeta) {
	g.pts = append(g.pts, p)
	g.meta = append(g.meta, m)
}

// load appends one shared workload and returns its table index.
func (g *Grid) load(l gridLoad) int32 {
	g.loads = append(g.loads, l)
	return int32(len(g.loads) - 1)
}

// size returns how many visible cells and hidden victim-reference cells
// the scenario expands to.
func (sc *Scenario) size() (visible, refs int) {
	tms := len(sc.Topologies) * len(sc.Modes) * len(sc.Seeds)
	faults := len(sc.RetryTimeouts) * len(sc.MaxRetriesAxis)
	switch {
	case len(sc.Traces) > 0:
		return len(sc.Traces) * tms, 0
	case len(sc.Flows) > 0:
		if len(sc.victimFlows()) > 0 {
			refs = tms
		}
		return tms * faults, refs
	}
	for _, wmode := range sc.WorkloadModes {
		if wmode == "closed" {
			visible += tms * len(sc.Outstanding) * len(sc.ThinkTimes)
		} else {
			visible += tms * len(sc.Rates) * faults
		}
	}
	return visible * len(sc.Patterns), 0
}

// fan calls fn with every topology × qos × seed point, in grid order.
func (sc *Scenario) fan(fn func(Point)) {
	for _, kind := range sc.Topologies {
		for _, mode := range sc.Modes {
			for _, seed := range sc.Seeds {
				fn(Point{Topology: kind, Mode: mode, Seed: seed})
			}
		}
	}
}

// fanFaults calls fn with p at every retry-timeout × max-retries point of
// the [faults] table's recovery axes.
func (sc *Scenario) fanFaults(p Point, fn func(Point)) {
	for _, rto := range sc.RetryTimeouts {
		for _, mr := range sc.MaxRetriesAxis {
			p.RetryTimeout, p.MaxRetries = rto, mr
			fn(p)
		}
	}
}

// expandClosed appends the closed-loop cells of one pattern: topology ×
// qos × seed × outstanding × think_time, each attaching a fresh client
// controller to the cell's reset network.
func (g *Grid) expandClosed(patName string) error {
	sc := g.Scenario
	pattern, err := sc.pattern(patName)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	l := g.load(gridLoad{w: workload.ClientWorkload("closed-"+patName, sc.Nodes), pattern: pattern})
	sc.fan(func(p Point) {
		p.Pattern, p.Workload = patName, "closed"
		for _, out := range sc.Outstanding {
			for _, think := range sc.ThinkTimes {
				p.Outstanding, p.Think = out, think
				g.add(p, cellMeta{kind: kClosed, load: l, ref: -1})
			}
		}
	})
	return nil
}

// expandTraces appends the replay cells: trace × topology × qos × seed,
// each replaying the recorded injection stream verbatim. The trace is
// built straight into its replay workload, which every cell of the trace
// shares. Relative trace paths resolve against the scenario file's
// directory.
func (g *Grid) expandTraces() error {
	sc := g.Scenario
	for _, trPath := range sc.Traces {
		path := trPath
		if !filepath.IsAbs(path) && sc.baseDir != "" {
			path = filepath.Join(sc.baseDir, path)
		}
		label := "replay:" + strings.TrimSuffix(filepath.Base(trPath), filepath.Ext(trPath))
		hdr, w, err := workload.ReadReplayFile(path, label)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
		if hdr.Nodes != sc.Nodes {
			return fmt.Errorf("scenario %s: trace %s recorded a %d-node column, scenario has %d",
				sc.Name, trPath, hdr.Nodes, sc.Nodes)
		}
		l := g.load(gridLoad{w: w, active: activeFlows(w), trace: path})
		sc.fan(func(p Point) {
			p.Pattern, p.Workload = "trace", label
			g.add(p, cellMeta{kind: kReplay, load: l, ref: -1})
		})
	}
	return nil
}

// Size returns the number of grid cells.
func (g *Grid) Size() int { return len(g.Points) }

// Cell builds grid cell i — the runner cell the sweep executes when a
// worker claims it — from the scenario, the point and its workload; it
// is the one place a grid cell's network.Config is made. Indices from
// Size() on name the hidden victim-reference cells. Every cell shares
// the grid's workloads and QoS Rates vector, which the engine only reads.
func (g *Grid) Cell(i int) runner.Cell {
	sc, p, m := g.Scenario, &g.pts[i], &g.meta[i]
	ld := &g.loads[m.load]
	q := g.qos
	q.Mode = p.Mode
	cell := runner.Cell{
		Config: network.Config{Kind: p.Topology, Nodes: sc.Nodes, QoS: q,
			Workload: ld.w, Seed: p.Seed, DisableIdleSkip: g.tick},
		Warmup: sc.Warmup, Measure: sc.Measure,
	}
	switch m.kind {
	case kVictimRef:
		return cell
	case kOpen, kFlows:
		cell.Config.Faults = network.FaultConfig{Windows: sc.FaultWindows,
			RetryTimeout: p.RetryTimeout, MaxRetries: p.MaxRetries}
		cell.Config.WatchdogCycles = sc.WatchdogCycles
	case kClosed:
		ccfg := workload.ClientConfig{
			Outstanding: p.Outstanding, ThinkMean: p.Think,
			Pattern: ld.pattern, Seed: p.Seed,
			RequestFlits: sc.RequestFlits, ReplyFlits: sc.ReplyFlits,
		}
		cell.Setup = func(n *network.Network) any {
			ct, err := workload.NewController(n, ccfg)
			if err != nil {
				panic(err)
			}
			return ct
		}
	}
	armTelemetry(&cell, sc)
	return cell
}

// RunOpts carries the runtime knobs that never change results: the worker
// count (bit-identical for every value) and a live accounting feed.
type RunOpts struct {
	Workers int
	// OnCell, when non-nil, observes every finished visible cell as it
	// lands — the live accounting feed for progress lines and the sweep
	// metrics endpoint. It fires on worker goroutines (make it
	// concurrency-safe) and never changes results.
	OnCell func(CellEvent)
}

// CellEvent is one live accounting record: a visible cell finished —
// executed, served from cache, failed, or skipped by cancellation.
type CellEvent struct {
	// Cell indexes the grid point.
	Cell int
	// Exactly one of Cached/Failed/Skipped is set for non-executed
	// outcomes; all false means the cell executed successfully.
	Cached  bool
	Failed  bool
	Skipped bool
	// Attempts/Wall/Cycles describe the run that produced the row
	// (zero for skipped cells); Worker is the runner slot that executed
	// it (-1 for cache hits).
	Attempts int
	Wall     time.Duration
	Cycles   int64
	Worker   int
}

// Result is the measured outcome of one grid point.
type Result struct {
	Point
	metrics
	// Wall is the wall-clock time the cell's successful run spent
	// simulating. Cache-served rows report the wall-clock of the run that
	// produced them.
	Wall time.Duration
	// Error reports a cell that failed on every attempt (tripped
	// watchdog, failed invariant audit, invalid configuration, missed
	// wall-clock deadline) or was skipped by a cancelled sweep; the
	// metric columns of a failed row are zero.
	Error string
	// Attempts is how many times the cell executed (1 normally, more
	// after retries, 0 when cancellation skipped it). Cache-served rows
	// report the attempts of the run that produced them.
	Attempts int
	// Timeline is the cell's in-run telemetry record — non-nil only when
	// the scenario declares a [telemetry] table and the cell actually
	// executed this process (cache-served rows carry none; the knobs are
	// display-only and excluded from cache keys). It never enters the
	// CSV/JSON row columns — the timeline emitters render it.
	Timeline *telemetry.Timeline
}

// metrics is what a grid point's simulation measured: a deterministic
// function of the cell, stored as is in its cache entry (see payload).
type metrics struct {
	// MeanLatency and P99Latency are delivered-packet latencies in
	// cycles, measured from generation (saturation shows as source
	// queueing, the hockey stick).
	MeanLatency float64 `json:"mean_latency"`
	P99Latency  float64 `json:"p99_latency"`
	// Accepted is delivered flits per cycle network-wide.
	Accepted float64 `json:"accepted"`
	// PreemptionPct is the preemption event rate over delivered packets.
	PreemptionPct float64 `json:"preemption_pct"`
	// Delivered counts delivered packets in the measurement window.
	Delivered int64 `json:"delivered"`
	// End is the cycle at the end of the measurement window.
	End sim.Cycle `json:"end"`
	// Throughput fairness dispersion, Table-2 style: min/max/stddev of
	// per-unit throughput as percentages of its mean, where the unit is
	// a flow's delivered flits (open/flows/replay cells) or a client's
	// completed requests (closed cells).
	TputMinPct    float64 `json:"tput_min_pct"`
	TputMaxPct    float64 `json:"tput_max_pct"`
	TputStdDevPct float64 `json:"tput_stddev_pct"`
	// Closed-loop metrics (zero elsewhere): completed round trips and
	// their latency distribution over the measurement window.
	Completed int64   `json:"completed"`
	MeanRTT   float64 `json:"mean_rtt"`
	P99RTT    float64 `json:"p99_rtt"`
	// Robustness columns: the delivered fraction (1.0 on a healthy run),
	// timeout-driven end-to-end retransmissions, packets abandoned for
	// good, and the mean end-to-end latency of packets that needed at
	// least one retransmission (0 when none did).
	DeliveredFraction float64 `json:"delivered_fraction"`
	Retries           int64   `json:"retries"`
	Drops             int64   `json:"drops"`
	MeanRecovery      float64 `json:"mean_recovery"`
	// VictimSlowdown is the victim flows' mean-latency inflation versus
	// the hidden victim-only reference cell (0 when the scenario declares
	// no victim roles, or when either side delivered nothing).
	VictimSlowdown float64 `json:"victim_slowdown"`
}

// cyclesPerSec is simulated cycles per wall second (End / Wall), the
// throughput the row's wall-clock bought; 0 with no wall-clock.
func cyclesPerSec(r *Result) float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(r.End) / r.Wall.Seconds()
}

// cellEventOf derives the live accounting record of one finished cell
// from its runner result.
func cellEventOf(i int, r *runner.Result) CellEvent {
	ev := CellEvent{Cell: i, Attempts: r.Attempts, Wall: r.Elapsed, Cycles: int64(r.End), Worker: r.Worker}
	if r.Err != nil {
		if errors.Is(r.Err, runner.ErrSkipped) {
			ev.Skipped = true
		} else {
			ev.Failed = true
		}
	}
	return ev
}

// row computes the result row of grid point i from its runner result and
// the victim-reference latency baseline (0 when the point has no victims
// or the reference failed). It is Stream's single row-derivation
// path for executed misses and verification re-runs alike, so cached and
// freshly-computed rows can never drift.
func (g *Grid) row(i int, r *runner.Result, base float64) Result {
	out := Result{Point: g.Points[i], Attempts: r.Attempts}
	if r.Failed() {
		out.Error = r.Err.Error()
		return out
	}
	aux := r.Aux
	if ca, ok := aux.(*cellAux); ok {
		out.Timeline = ca.sampler.Timeline()
		aux = ca.inner
	}
	st := r.Stats
	out.MeanLatency = st.MeanLatency()
	out.P99Latency = float64(st.Latencies.Percentile(99))
	out.Accepted = st.AcceptedFlitRate(r.End)
	out.PreemptionPct = st.PreemptionPacketRate()
	out.Delivered = st.TotalDelivered
	out.End = r.End
	out.DeliveredFraction = st.DeliveredFraction()
	out.Retries = st.TotalRetries
	out.Drops = st.TotalDropped
	out.MeanRecovery = st.MeanRecoveryLatency()
	out.Wall = r.Elapsed
	m := &g.meta[i]
	ld := &g.loads[m.load]
	var summary stats.Summary
	if m.kind == kClosed {
		ct := aux.(*workload.Controller)
		summary = stats.Summarize(ct.RT.PerClient())
		out.Completed = ct.RT.TotalCompleted()
		out.MeanRTT = ct.RT.MeanRTT()
		out.P99RTT = float64(ct.RT.Latencies.Percentile(99))
	} else {
		flits := st.FlitsByFlow()
		vals := make([]float64, 0, len(ld.active))
		for _, f := range ld.active {
			vals = append(vals, float64(flits[f]))
		}
		summary = stats.Summarize(vals)
	}
	out.TputMinPct = summary.MinPctOfMean()
	out.TputMaxPct = summary.MaxPctOfMean()
	out.TputStdDevPct = summary.StdDevPctOfMean()
	if len(ld.victims) > 0 {
		if mean := victimMeanLatency(st, ld.victims); base > 0 && mean > 0 {
			out.VictimSlowdown = mean / base
		}
	}
	return out
}

// victimMeanLatency averages delivered-packet latency over the victim
// flows of one cell.
func victimMeanLatency(st *stats.Collector, victims []noc.FlowID) float64 {
	var pkts, lat int64
	for _, f := range victims {
		pkts += st.DeliveredPackets[f]
		lat += st.LatencySumByFlow[f]
	}
	if pkts == 0 {
		return 0
	}
	return float64(lat) / float64(pkts)
}

// RowWriter writes a sweep's rows to an io.Writer as they arrive — a
// chunk at a time, as Grid.Stream hands them to its sink — in one of
// three formats: CSV (NewCSVWriter), the aligned table (NewTableWriter)
// or the JSON report (NewJSONWriter). Each Write formats its rows after
// the ones before and writes them in one call, the first Write with the
// output's header ahead of them; Close ends the output. However the rows
// are split across Writes, the bytes are those of one Write of them all;
// CSV and JSONReport are such a RowWriter, handed every row in one piece.
type RowWriter struct {
	w      io.Writer
	format rowFormat
	name   string
	cells  int  // the table title's cell count
	rows   int  // rows written so far
	open   bool // the header is written
}

type rowFormat uint8

const (
	formatCSV rowFormat = iota
	formatTable
	formatJSON
)

// NewCSVWriter returns a RowWriter of the CSV rows CSV prints.
func NewCSVWriter(w io.Writer, name string) *RowWriter {
	return &RowWriter{w: w, format: formatCSV, name: name}
}

// NewTableWriter returns a RowWriter of an aligned table, one row per
// point, under a title stating cells, the size of the grid the rows will
// come from. Open and replay rows show offered rate and packet latency;
// closed rows show the window/think axes and round-trip metrics; every
// row shows its fairness dispersion (stddev of per-flow or per-client
// throughput, % of mean).
func NewTableWriter(w io.Writer, name string, cells int) *RowWriter {
	return &RowWriter{w: w, format: formatTable, name: name, cells: cells}
}

// NewJSONWriter returns a RowWriter of the report JSONReport marshals.
func NewJSONWriter(w io.Writer, name string) *RowWriter {
	return &RowWriter{w: w, format: formatJSON, name: name}
}

// Write writes rows, the next ones in grid order.
func (rw *RowWriter) Write(rows []Result) error {
	b, err := rw.appendRows(nil, rows)
	if err != nil {
		return err
	}
	_, err = rw.w.Write(b)
	return err
}

// Close ends the output: the header if no Write came, and the JSON
// report's closing brackets.
func (rw *RowWriter) Close() error {
	if b := rw.appendEnd(nil); len(b) > 0 {
		_, err := rw.w.Write(b)
		return err
	}
	return nil
}

// all returns the whole output over results, built in memory.
func (rw *RowWriter) all(results []Result) ([]byte, error) {
	b, err := rw.appendRows(nil, results)
	if err != nil {
		return nil, err
	}
	return rw.appendEnd(b), nil
}

func (rw *RowWriter) appendHead(b []byte) []byte {
	rw.open = true
	switch rw.format {
	case formatCSV:
		b = append(b, "scenario"...)
		for i := range columns {
			b = append(append(b, ','), columns[i].name...)
		}
		return append(b, '\n')
	case formatTable:
		title := fmt.Sprintf("Sweep: %s (%d cells)", rw.name, rw.cells)
		b = append(append(b, title+"\n"...), strings.Repeat("-", len(title))+"\n"...)
		return fmt.Appendf(b, "%-16s %-14s %-9s %-14s %10s %11s %10s %9s %9s %9s %8s %8s %7s %9s %8s\n",
			"workload", "pattern", "topology", "qos", "seed", "rate/window", "latency", "p99", "accepted", "preempt", "fair-sd", "dlv", "vslow", "wall-ms", "Mcyc/s")
	}
	name, _ := json.Marshal(rw.name) // a string always marshals
	return append(append(append(b, "{\n  \"scenario\": "...), name...), ",\n  \"results\": ["...)
}

func (rw *RowWriter) appendRows(b []byte, rows []Result) ([]byte, error) {
	if !rw.open {
		b = rw.appendHead(b)
	}
	switch rw.format {
	case formatCSV:
		b = appendCSVRows(b, rw.name, rows)
	case formatTable:
		for i := range rows {
			b = appendTableRow(b, &rows[i])
		}
	case formatJSON:
		// Each element is indented as it sits in the whole report: two
		// levels deep, so its lines carry a four-space prefix.
		for i := range rows {
			if rw.rows+i > 0 {
				b = append(b, ',')
			}
			var err error
			if b, err = appendJSONRow(append(b, "\n    "...), &rows[i]); err != nil {
				return b, err
			}
		}
	}
	rw.rows += len(rows)
	return b, nil
}

func (rw *RowWriter) appendEnd(b []byte) []byte {
	if !rw.open {
		b = rw.appendHead(b)
	}
	if rw.format != formatJSON {
		return b
	}
	if rw.rows > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...)
}

// CSV renders results as one row per grid point. Alongside the latency
// and throughput aggregates, every row carries the Table-2-style fairness
// dispersion of its cell (min/max/stddev of per-flow — or per-client —
// throughput as % of mean), and closed-loop rows add round-trip columns.
func CSV(name string, results []Result) string {
	b, _ := NewCSVWriter(nil, name).all(results) // CSV formatting cannot fail
	return string(b)
}

// appendCSVRows formats rows jobCells at a time across one worker per
// CPU and appends them in order, so the output does not depend on the
// CPU count.
func appendCSVRows(b []byte, name string, rows []Result) []byte {
	esc := csvEscape(name)
	jobs := runner.Map((len(rows)+jobCells-1)/jobCells, 0, func(job int) []byte {
		var b []byte
		for i := job * jobCells; i < min((job+1)*jobCells, len(rows)); i++ {
			b = appendCSVRow(b, esc, &rows[i])
		}
		return b
	})
	size := 0
	for _, job := range jobs {
		size += len(job)
	}
	b = slices.Grow(b, size)
	for _, job := range jobs {
		b = append(b, job...)
	}
	return b
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// JSONReport marshals a sweep's results: {"scenario": name, "results":
// [...]} indented two spaces a level, as json.MarshalIndent lays it out.
func JSONReport(name string, results []Result) ([]byte, error) {
	return NewJSONWriter(nil, name).all(results)
}

// appendTableRow appends one table row.
func appendTableRow(b []byte, r *Result) []byte {
	axis := fmt.Sprintf("%6.2f%%", r.Rate*100)
	lat, p99 := r.MeanLatency, r.P99Latency
	if r.Workload == "closed" {
		axis = fmt.Sprintf("w%d/t%.0f", r.Outstanding, r.Think)
		lat, p99 = r.MeanRTT, r.P99RTT
	}
	if r.Error != "" {
		return fmt.Appendf(b, "%-16s %-14s %-9s %-14s %10d %11s  FAILED (%d attempts): %s\n",
			r.Workload, r.Pattern, r.Topology, r.Mode, r.Seed, axis, r.Attempts, r.Error)
	}
	vslow := "-"
	if r.VictimSlowdown > 0 {
		vslow = fmt.Sprintf("%.2fx", r.VictimSlowdown)
	}
	return fmt.Appendf(b, "%-16s %-14s %-9s %-14s %10d %11s %10.1f %9.0f %9.3f %8.2f%% %7.2f%% %7.2f%% %7s %9.1f %8.2f\n",
		r.Workload, r.Pattern, r.Topology, r.Mode, r.Seed, axis,
		lat, p99, r.Accepted, r.PreemptionPct, r.TputStdDevPct,
		100*r.DeliveredFraction, vslow,
		float64(r.Wall)/float64(time.Millisecond), cyclesPerSec(r)/1e6)
}
