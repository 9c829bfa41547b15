package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/scenario"
	"tanoq/internal/store"
)

// span is one timed call into a layer, recorded from out here: the
// harness places spans around the public functions it calls, never
// inside the program. Spans stay in memory and are written to
// trace.json when the run ends. A span's self time is its duration
// minus the part of it its children cover.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Workload groups the spans of one workload's breakdown; Cell is the
	// grid cell the call served, -1 where it served the whole sweep.
	Workload string `json:"workload,omitempty"`
	Cell     int    `json:"cell"`
	Start    int64  `json:"start"`
	End      int64  `json:"end"`
}

// tracer records spans. A nil tracer records nothing, which is how the
// breakdown's untraced pass calls exactly the same code.
type tracer struct {
	t0       time.Time
	workload string
	spans    []span
}

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(name string, parent, cell int) int {
	if t == nil {
		return 0
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload, Cell: cell,
		Start: int64(time.Since(t.t0))})
	return id
}

// end closes a span.
func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].End = int64(time.Since(t.t0))
	}
}

// sum totals the spans opened since mark whose name is one of names.
func (t *tracer) sum(mark int, names ...string) time.Duration {
	var total time.Duration
	for _, s := range t.spans[mark:] {
		for _, name := range names {
			if s.Name == name {
				total += time.Duration(s.End - s.Start)
			}
		}
	}
	return total
}

// traced is the per-layer run: the fixed micro-measurements of every
// layer once, then each selected workload's breakdown.
func (e *env) traced(selected []workload, rep *report) error {
	tr := &tracer{t0: time.Now()}
	checks := &workloadReport{}
	micro, err := e.layers(tr, checks)
	if err != nil {
		return err
	}
	for _, w := range selected {
		wr := &workloadReport{Name: w.name, Why: w.why,
			Attempted: checks.Attempted, Failed: checks.Failed, Failures: append([]string(nil), checks.Failures...)}
		values, err := e.breakdown(tr, w, wr)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		for k, v := range micro {
			values[k] = v
		}
		for _, def := range perLayerMetrics {
			v, ok := values[def.Name]
			if !ok {
				return fmt.Errorf("%s: per-layer metric %s was not measured", w.name, def.Name)
			}
			wr.Metrics = append(wr.Metrics, summarize(def.Name, def.Unit, []float64{v}))
		}
		if len(values) != len(perLayerMetrics) {
			return fmt.Errorf("%s: measured %d per-layer metrics, catalogue declares %d", w.name, len(values), len(perLayerMetrics))
		}
		wr.FailedOpsFrac = float64(wr.Failed) / float64(wr.Attempted)
		rep.Workloads = append(rep.Workloads, *wr)
	}
	rep.spans = tr.spans
	return nil
}

// sweepRun is what one in-process sweep of a scenario file produced.
type sweepRun struct {
	total   time.Duration // Resolve + Grid + Keys + store opens + RunDurable + CSV
	durable time.Duration
	runWall time.Duration // sum of the runner's per-cell WarmupAndMeasure wall, executed cells only
	grid    *scenario.Grid
	keys    []string
	report  *scenario.DurableReport
	cached  []bool
	store   *store.Store
}

// sweep is pass A: the calls cmd/noctool's sweep makes, in its order,
// with one worker so that spans do not overlap. With a nil tracer it is
// the same calls with no spans and no per-cell hook — the untraced twin
// trace.overhead_pct compares against.
func sweep(ctx context.Context, tr *tracer, root int, in sweepInput) (*sweepRun, error) {
	run := &sweepRun{}
	start := time.Now()
	id := tr.begin("scenario.Resolve", root, -1)
	sc, _, err := scenario.Resolve(scenario.FileLayer(in.scenario))
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("Scenario.Grid", root, -1)
	run.grid, err = sc.Grid()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("Grid.Keys", root, -1)
	run.keys, err = run.grid.Keys()
	tr.end(id)
	if err != nil {
		return nil, err
	}
	opts := scenario.DurableOpts{RunOpts: scenario.RunOpts{Workers: 1}}
	if in.cacheDir != "" {
		id = tr.begin("store.Open", root, -1)
		run.store, err = store.Open(in.cacheDir)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		id = tr.begin("store.OpenJournal", root, -1)
		journal, err := store.OpenJournal(filepath.Join(in.cacheDir, "journal"))
		tr.end(id)
		if err != nil {
			return nil, err
		}
		defer journal.Close()
		opts.Store, opts.Journal = run.store, journal
	}
	if tr != nil {
		run.cached = make([]bool, run.grid.Size())
		opts.OnCell = func(ev scenario.CellEvent) {
			run.cached[ev.Cell] = ev.Cached
			if !ev.Cached && !ev.Skipped {
				run.runWall += ev.Wall
			}
		}
	}
	id = tr.begin("Grid.RunDurable", root, -1)
	t0 := time.Now()
	run.report, err = run.grid.RunDurable(ctx, opts)
	run.durable = time.Since(t0)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("scenario.CSV", root, -1)
	_ = scenario.CSV(sc.Name, run.report.Results)
	tr.end(id)
	run.total = time.Since(start)
	return run, nil
}

// cells is pass B: every cell pass A executed is run again, one call at
// a time, with a span around each layer call the runner makes for it —
// network.New (first cell) or Reset (the rest, as a worker slot does),
// Cell.Setup, WarmupAndMeasure — and the store calls RunDurable made for
// the sweep are replayed on a fresh store with a span each. It returns
// the exact simulated counts and checks them against pass A's rows.
func (e *env) cells(tr *tracer, root int, in sweepInput, run *sweepRun, wr *workloadReport) (cycles, delivered, preempted int64, err error) {
	var n *network.Network
	same := true
	for i := 0; i < run.grid.Size(); i++ {
		if run.cached[i] {
			continue
		}
		cell := run.grid.Cell(i)
		if n == nil {
			id := tr.begin("network.New", root, i)
			n, err = network.New(cell.Config)
			tr.end(id)
		} else {
			id := tr.begin("network.Reset", root, i)
			err = n.Reset(cell.Config)
			tr.end(id)
		}
		if err != nil {
			return 0, 0, 0, err
		}
		if cell.Setup != nil {
			id := tr.begin("Cell.Setup", root, i)
			cell.Setup(n)
			tr.end(id)
		}
		id := tr.begin("Network.WarmupAndMeasure", root, i)
		n.WarmupAndMeasure(cell.Warmup, cell.Measure)
		tr.end(id)
		st := n.Stats()
		cycles += int64(n.Now())
		delivered += st.TotalDelivered
		preempted += st.PreemptedUnique
		row := &run.report.Results[i]
		same = same && row.Delivered == st.TotalDelivered && row.End == n.Now()
	}
	why := ""
	if !same {
		why = in.label + ": cells re-run one call at a time disagree with RunDurable's rows"
	}
	wr.op(why)
	if run.store == nil {
		return cycles, delivered, preempted, nil
	}

	dir, err := os.MkdirTemp(e.work, "replay-")
	if err != nil {
		return 0, 0, 0, err
	}
	fresh, err := store.Open(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	journal, err := store.OpenJournal(filepath.Join(dir, "journal"))
	if err != nil {
		return 0, 0, 0, err
	}
	defer journal.Close()
	for i, key := range run.keys {
		payload, ok := run.store.Get(key)
		if !ok {
			return 0, 0, 0, fmt.Errorf("%s: cell %d has no store entry after the sweep", in.label, i)
		}
		if run.cached[i] {
			// RunDurable found it: one Get, a hit.
			if err := fresh.Put(key, payload); err != nil {
				return 0, 0, 0, err
			}
			id := tr.begin("store.Get", root, i)
			fresh.Get(key)
			tr.end(id)
			continue
		}
		// RunDurable missed, ran the cell, then checkpointed it.
		id := tr.begin("store.Get", root, i)
		fresh.Get(key)
		tr.end(id)
		id = tr.begin("store.Put", root, i)
		err = fresh.Put(key, payload)
		tr.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
		id = tr.begin("Journal.Record", root, i)
		err = journal.Record(key)
		tr.end(id)
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return cycles, delivered, preempted, nil
}

// breakdown produces the trace.* and sim.* block for one workload: its
// sweeps run in-process three times — traced (pass A), untraced (the
// overhead baseline, also the source of host_ns_per_sim_cycle), and cell
// by cell (pass B). paper_quick runs no sweep: its breakdown is the
// experiments.*_ms metrics, and this block reads zero for it.
func (e *env) breakdown(tr *tracer, w workload, wr *workloadReport) (map[string]float64, error) {
	dir, err := os.MkdirTemp(e.work, w.name+"-traced-")
	if err != nil {
		return nil, err
	}
	p, err := w.gen(e, dir)
	if err != nil {
		return nil, err
	}
	tr.workload = w.name
	defer func() { tr.workload = "" }()
	mark := len(tr.spans)

	var tracedTotal, plainTotal, durable, runWall time.Duration
	var cycles, delivered, preempted int64
	var plainCPU float64
	rows := 0
	passA := tr.begin("passA", 0, -1)
	runs := make([]*sweepRun, len(p.sweeps))
	if p.next != nil {
		p.next()
	}
	for i, in := range p.sweeps {
		root := tr.begin("sweep:"+in.label, passA, -1)
		runs[i], err = sweep(e.ctx, tr, root, in)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		tracedTotal += runs[i].total
		durable += runs[i].durable
		runWall += runs[i].runWall
		rows += len(runs[i].report.Results)
		for _, r := range runs[i].report.Results {
			why := ""
			if r.Error != "" {
				why = fmt.Sprintf("%s: cell failed in-process: %s", in.label, r.Error)
			}
			wr.op(why)
		}
		if p.wantRows != "" {
			wr.op(mismatch(in.label+": cells executed against a warm cache", fmt.Sprint(runs[i].report.Executed), "0"))
		}
	}
	tr.end(passA)

	passB := tr.begin("passB", 0, -1)
	for i, in := range p.sweeps {
		root := tr.begin("cells:"+in.label, passB, -1)
		c, d, pre, err := e.cells(tr, root, in, runs[i], wr)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		cycles, delivered, preempted = cycles+c, delivered+d, preempted+pre
	}
	tr.end(passB)

	if p.next != nil {
		p.next()
	}
	for _, in := range p.sweeps {
		cpu0 := selfCPU()
		plain, err := sweep(e.ctx, nil, 0, in)
		if err != nil {
			return nil, err
		}
		plainCPU += selfCPU() - cpu0
		plainTotal += plain.total
	}

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	// RunDurable's self time is what is left of its span once the layer
	// calls made inside it are taken out: the simulation (the runner's own
	// per-cell wall, from the same pass), network set-up and the per-cell
	// store calls (both from pass B). What remains is dispatch, row
	// derivation and JSON encoding.
	setup := tr.sum(mark, "network.New", "network.Reset", "Cell.Setup")
	storeCells := tr.sum(mark, "store.Get", "store.Put", "Journal.Record")
	out := map[string]float64{
		"trace.scenario_ms":      ms(tr.sum(mark, "scenario.Resolve", "Scenario.Grid", "Grid.Keys", "scenario.CSV")),
		"trace.network_setup_ms": ms(setup),
		"trace.network_run_ms":   ms(runWall),
		"trace.store_ms":         ms(storeCells + tr.sum(mark, "store.Open", "store.OpenJournal")),
		"trace.sweep_self_ms":    ms(durable - runWall - setup - storeCells),
		"trace.network_share":    0,
		"trace.overhead_pct":     0,
		"sim.cycles":             float64(cycles),
		"sim.delivered_packets":  float64(delivered),
		"sim.preempted_packets":  float64(preempted),
		"sim.rows":               float64(rows),
		"host_ns_per_sim_cycle":  0,
	}
	if durable > 0 {
		out["trace.network_share"] = float64(runWall) / float64(durable)
	}
	if plainTotal > 0 {
		out["trace.overhead_pct"] = 100 * float64(tracedTotal-plainTotal) / float64(plainTotal)
	}
	if cycles > 0 {
		out["host_ns_per_sim_cycle"] = 1e9 * plainCPU / float64(cycles)
	}
	return out, nil
}

// selfCPU is this process's user + system CPU so far, in seconds.
func selfCPU() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}
