package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"tanoq/internal/experiments"
	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/scenario"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/store"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	wl "tanoq/internal/workload"
)

// sink keeps measured calls from being optimized away.
var sink int64

// medianDur runs fn reps times and returns the median of its results.
func medianDur(reps int, fn func() time.Duration) time.Duration {
	ds := make([]time.Duration, reps)
	for i := range ds {
		ds[i] = fn()
	}
	return medianOf(ds)
}

// medianOf sorts ds and returns its middle element.
func medianOf(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	return ds[len(ds)/2]
}

// timed returns fn's wall-clock.
func timed(fn func()) time.Duration {
	start := time.Now()
	fn()
	return time.Since(start)
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// layerRun carries the micro-measurements' shared state.
type layerRun struct {
	e      *env
	tr     *tracer
	root   int
	checks *workloadReport
	out    map[string]float64
	reps   int // samples behind each median (1 at smoke scale)
}

// measure stores one metric, with a span covering its measurement.
func (l *layerRun) measure(name string, fn func() float64) {
	id := l.tr.begin("layer:"+name, l.root, -1)
	l.out[name] = fn()
	l.tr.end(id)
}

// parse resolves a generated scenario body in memory and expands it.
func parse(f sweepFile) (*scenario.Scenario, *scenario.Grid, error) {
	sc, err := scenario.Parse(f.text(), ".toml")
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", f.name, err)
	}
	g, err := sc.Grid()
	return sc, g, err
}

// cellRun is one cell executed the way a runner slot executes it.
type cellRun struct {
	wall        time.Duration
	cycles      sim.Cycle
	fingerprint string
}

func runCell(cell runner.Cell, disableSkip bool, attach func(*network.Network)) cellRun {
	cell.Config.DisableIdleSkip = disableSkip
	n := network.MustNew(cell.Config)
	if cell.Setup != nil {
		cell.Setup(n)
	}
	if attach != nil {
		attach(n)
	}
	wall := timed(func() { n.WarmupAndMeasure(cell.Warmup, cell.Measure) })
	return cellRun{wall, n.Now(), wl.Fingerprint(n.Stats(), n.Now())}
}

// nsPerCycle is the median host cost of one simulated cycle of the cell.
func (l *layerRun) nsPerCycle(cell runner.Cell, disableSkip bool, attach func(*network.Network)) (float64, cellRun) {
	var last cellRun
	wall := medianDur(l.reps, func() time.Duration {
		last = runCell(cell, disableSkip, attach)
		return last.wall
	})
	return float64(wall) / float64(last.cycles), last
}

// layers measures every layer's public calls on fixed inputs derived
// from the seed. These numbers are the same whichever workload the
// traced run was asked for; README.md says which workload's end-to-end
// metrics each is expected to move.
func (e *env) layers(tr *tracer, checks *workloadReport) (map[string]float64, error) {
	l := &layerRun{e: e, tr: tr, checks: checks, out: map[string]float64{}, reps: 3}
	if e.sc.smoke {
		l.reps = 1
	}
	l.root = tr.begin("layers", 0, -1)
	defer tr.end(l.root)
	for _, group := range []func(*layerRun) error{
		(*layerRun).steady, (*layerRun).saturated, (*layerRun).sparse,
		(*layerRun).shortCells, (*layerRun).paper,
	} {
		if err := group(l); err != nil {
			return nil, err
		}
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// stepCost times the raw tick path: a warmed network advanced one Step
// at a time with idle skipping off. It returns the median ns per Step
// and the fewest allocations any repetition's timed window made (the
// first repetition grows fresh containers; a long-lived engine does not).
func (l *layerRun) stepCost(cfg network.Config, warm, steps int) (ns float64, allocs uint64) {
	cfg.DisableIdleSkip = true
	n := network.MustNew(cfg)
	allocs = ^uint64(0)
	reps := max(l.reps, 2) // the alloc count needs one repetition on grown containers
	wall := medianDur(reps, func() time.Duration {
		if err := n.Reset(cfg); err != nil {
			panic(err)
		}
		n.Run(warm)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := timed(func() {
			for i := 0; i < steps; i++ {
				n.Step()
			}
		})
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		return d
	})
	return float64(wall) / float64(steps), allocs
}

// steady: dense sub-saturation stepping, the runner over steady_grid's
// cells, and the per-packet sampling and accounting calls under it.
func (l *layerRun) steady() error {
	e := l.e
	w := traffic.UniformRandom(topology.ColumnNodes, 0.04)
	var allocs uint64
	for _, kind := range topology.Kinds() {
		cfg := network.Config{Kind: kind, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: e.seed}
		l.measure("network.step_ns.steady."+kind.String(), func() float64 {
			ns, a := l.stepCost(cfg, e.sc.cycles(30_000), e.sc.count(150_000))
			allocs += a
			return ns
		})
	}
	l.out["network.step_allocs.steady"] = float64(allocs)

	_, g, err := parse(steadyGrid(e, 50_000))
	if err != nil {
		return err
	}
	cells := make([]runner.Cell, g.Size())
	for i := range cells {
		cells[i] = g.Cell(i)
	}
	var one, many []runner.Result
	l.measure("runner.speedup", func() float64 {
		seq := medianDur(l.reps, func() time.Duration {
			return timed(func() { one = runner.RunCellsCtx(e.ctx, cells, runner.Options{Workers: 1}) })
		})
		par := medianDur(l.reps, func() time.Duration {
			return timed(func() { many = runner.RunCellsCtx(e.ctx, cells, runner.Options{Workers: e.procs}) })
		})
		return float64(seq) / float64(par)
	})
	busy := make([]time.Duration, e.procs)
	var total time.Duration
	same := true
	for i := range many {
		if one[i].Failed() || many[i].Failed() {
			return fmt.Errorf("runner: steady_grid cell %d failed: %v %v", i, one[i].Err, many[i].Err)
		}
		busy[many[i].Worker] += many[i].Elapsed
		total += many[i].Elapsed
		same = same && wl.Fingerprint(one[i].Stats, one[i].End) == wl.Fingerprint(many[i].Stats, many[i].End)
	}
	l.check(same, "runner: workers=1 and workers=%d fingerprints differ on steady_grid's cells", e.procs)
	sort.Slice(busy, func(a, b int) bool { return busy[a] > busy[b] })
	l.out["runner.imbalance_pct"] = 100 * (float64(busy[0])*float64(e.procs)/float64(total) - 1)

	draws := e.sc.count(1_000_000)
	perDraw := func(fn func()) float64 {
		return float64(medianDur(l.reps, func() time.Duration { return timed(fn) })) / float64(draws)
	}
	rng := sim.NewRNG(e.seed)
	sampler := w.Specs[0].NewArrivalSampler(rng)
	l.measure("traffic.next_gap_ns", func() float64 {
		return perDraw(func() {
			for i := 0; i < draws; i++ {
				sink += int64(sampler.NextGap(rng))
			}
		})
	})
	p := sampler.PeakProb()
	table := sim.NewGeoTable(p)
	l.measure("sim.geotable_draw_ns", func() float64 {
		return perDraw(func() {
			for i := 0; i < draws; i++ {
				sink += table.Draw(rng)
			}
		})
	})
	logQ := math.Log1p(-p)
	l.measure("sim.geometric_log_ns", func() float64 {
		return perDraw(func() {
			for i := 0; i < draws; i++ {
				sink += rng.GeometricLog(p, logQ)
			}
		})
	})
	coll := stats.NewCollector(w.TotalFlows())
	l.measure("stats.delivered_ns", func() float64 {
		return perDraw(func() {
			for i := 0; i < draws; i++ {
				coll.Delivered(noc.FlowID(i&63), 4, int64(20+i&31), sim.Cycle(i))
			}
		})
	})
	sink += coll.TotalDelivered
	return nil
}

// check records one traced-run correctness op.
func (l *layerRun) check(ok bool, format string, args ...any) {
	why := ""
	if !ok {
		why = fmt.Sprintf(format, args...)
	}
	l.checks.op(why)
}

// saturated: Workload 1's flows under PVC, where candidate lists are
// deep and preemptions constant, plus the arbitration pick and the
// fairness expectation the adversarial experiments lean on.
func (l *layerRun) saturated() error {
	e := l.e
	w := traffic.Workload1(topology.ColumnNodes, 0)
	for _, kind := range topology.Kinds() {
		cfg := network.Config{Kind: kind, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: e.seed}
		l.measure("network.step_ns.saturated."+kind.String(), func() float64 {
			ns, _ := l.stepCost(cfg, e.sc.cycles(10_000), e.sc.count(50_000))
			return ns
		})
	}
	rng := sim.NewRNG(e.seed)
	pkts := make([]noc.Packet, 16)
	cands := make([]qos.Candidate, len(pkts))
	for i := range cands {
		pkts[i].ID = uint64(i)
		cands[i] = qos.Candidate{Packet: &pkts[i], Priority: noc.Priority(rng.Intn(8)), Enqueued: sim.Cycle(rng.Intn(64))}
	}
	picks := e.sc.count(1_000_000)
	l.measure("qos.pick_pvc_ns", func() float64 {
		return float64(timed(func() {
			for i := 0; i < picks; i++ {
				sink += int64(qos.PickPVC(cands))
			}
		})) / float64(picks)
	})
	calls := e.sc.count(200_000)
	l.measure("stats.maxmin_shares_us", func() float64 {
		return us(timed(func() {
			for i := 0; i < calls; i++ {
				sink += int64(len(stats.MaxMinShares(traffic.Workload1Rates, 1.0)))
			}
		})) / float64(calls)
	})
	return nil
}

// sparse: cells whose cost is per event — an idle drain tail (skip vs
// tick), a faulted cell with retry and watchdog timers, the same cell
// probed, closed-loop clients, and a recorded trace encoded, decoded and
// replayed.
func (l *layerRun) sparse() error {
	e := l.e
	_, idle, err := parse(sparseIdle(e))
	if err != nil {
		return err
	}
	var skip, tick cellRun
	l.measure("network.run_ns_per_cycle.idle", func() (ns float64) {
		ns, skip = l.nsPerCycle(idle.Cell(0), false, nil)
		return ns
	})
	l.measure("network.skip_speedup.idle", func() float64 {
		var tickNS float64
		tickNS, tick = l.nsPerCycle(idle.Cell(0), true, nil)
		return tickNS / l.out["network.run_ns_per_cycle.idle"]
	})
	l.check(skip.fingerprint == tick.fingerprint, "network: idle cell skip fingerprint %s != tick %s", skip.fingerprint, tick.fingerprint)

	sc, faulted, err := parse(sparseFaulted(e, false))
	if err != nil {
		return err
	}
	var bare, probed cellRun
	l.measure("network.run_ns_per_cycle.faulted", func() (ns float64) {
		ns, bare = l.nsPerCycle(faulted.Cell(0), false, nil)
		return ns
	})
	// Probed and unprobed runs alternate, so drift in the host's speed
	// lands on both sides of the ratio.
	var sampler *telemetry.Sampler
	attach := func(n *network.Network) {
		sampler = telemetry.Attach(n, telemetry.Options{
			Interval: sim.Cycle(e.sc.cycles(5_000)), Horizon: sim.Cycle(sc.Warmup + sc.Measure)})
	}
	l.measure("telemetry.probe_overhead_pct", func() float64 {
		with, without := make([]time.Duration, l.reps+2), make([]time.Duration, l.reps+2)
		for i := range with {
			probed = runCell(faulted.Cell(0), false, attach)
			with[i], without[i] = probed.wall, runCell(faulted.Cell(0), false, nil).wall
		}
		return 100 * (float64(medianOf(with))/float64(medianOf(without)) - 1)
	})
	l.check(bare.fingerprint == probed.fingerprint, "telemetry: probed cell fingerprint %s != unprobed %s", probed.fingerprint, bare.fingerprint)
	l.measure("telemetry.write_table_us", func() float64 {
		return us(medianDur(5, func() time.Duration {
			return timed(func() { sampler.Timeline().WriteTable(io.Discard) })
		}))
	})

	_, closed, err := parse(sparseClosed(e))
	if err != nil {
		return err
	}
	l.measure("workload.closed_ns_per_cycle", func() float64 {
		ns, _ := l.nsPerCycle(closed.Cell(0), false, nil)
		return ns
	})

	_, record, err := parse(sparseRecord(e))
	if err != nil {
		return err
	}
	cell, point := record.Cell(0), record.Points[0]
	rec := &wl.Recorder{}
	recorded := runCell(cell, false, rec.Attach)
	trace := rec.Trace(wl.TraceHeader{
		Nodes: cell.Config.Nodes, Topology: point.Topology.String(), QoS: point.Mode.String(),
		Seed: point.Seed, Warmup: cell.Warmup, Measure: cell.Measure,
	})
	var blob []byte
	mbPerS := func(d time.Duration) float64 { return float64(len(blob)) / 1e6 / d.Seconds() }
	l.measure("workload.trace_encode_mb_per_s", func() float64 {
		d := medianDur(5, func() time.Duration { return timed(func() { blob = trace.Encode() }) })
		return mbPerS(d)
	})
	var decoded *wl.Trace
	l.measure("workload.trace_decode_mb_per_s", func() float64 {
		d := medianDur(5, func() time.Duration {
			return timed(func() { decoded, err = wl.DecodeTrace(blob) })
		})
		return mbPerS(d)
	})
	if err != nil {
		return err
	}
	cfg, warmup, measure, err := decoded.Cell("replay")
	if err != nil {
		return err
	}
	var replayed cellRun
	l.measure("workload.replay_ns_per_cycle", func() (ns float64) {
		ns, replayed = l.nsPerCycle(runner.Cell{Config: cfg, Warmup: warmup, Measure: measure}, false, nil)
		return ns
	})
	l.check(recorded.fingerprint == replayed.fingerprint, "workload: replay fingerprint %s != recorded %s", replayed.fingerprint, recorded.fingerprint)
	return nil
}

// shortCells: the per-cell fixed costs of a sweep — construction and
// reset, scenario resolve/expand/hash/render, the store's write and read
// sides, runner dispatch — on a two-seed cut of the short_cells grid,
// plus the CLI's own start-up.
func (l *layerRun) shortCells() error {
	e := l.e
	file := shortCells(e, 2)
	blob := file.text()
	var sc *scenario.Scenario
	var err error
	l.measure("scenario.resolve_us", func() float64 {
		return us(medianDur(e.sc.count(100), func() time.Duration {
			return timed(func() { sc, _, err = scenario.Resolve(scenario.BlobLayer(file.name+".toml", blob, ".toml")) })
		}))
	})
	if err != nil {
		return err
	}
	var g *scenario.Grid
	l.measure("scenario.grid_us_per_cell", func() float64 {
		d := medianDur(e.sc.count(40), func() time.Duration { return timed(func() { g, err = sc.Grid() }) })
		return us(d) / float64(g.Size())
	})
	if err != nil {
		return err
	}
	cells := float64(g.Size())
	var keys []string
	l.measure("scenario.keys_us_per_cell", func() float64 {
		d := medianDur(e.sc.count(20), func() time.Duration { return timed(func() { keys, err = g.Keys() }) })
		return us(d) / cells
	})
	if err != nil {
		return err
	}

	kinds := topology.Kinds()
	l.measure("topology.new_graph_us", func() float64 {
		var total time.Duration
		for _, kind := range kinds {
			total += medianDur(e.sc.count(40), func() time.Duration {
				return timed(func() { sink += int64(len(topology.NewGraph(kind, topology.ColumnNodes).Ports)) })
			})
		}
		return us(total) / float64(len(kinds))
	})
	calls := e.sc.count(20_000)
	l.measure("traffic.synthetic_us", func() float64 {
		return us(timed(func() {
			for i := 0; i < calls; i++ {
				w, err := traffic.Synthetic(traffic.UniformTraffic(), topology.ColumnNodes, 0.04, traffic.Burst{})
				if err != nil {
					panic(err)
				}
				sink += int64(len(w.Specs))
			}
		})) / float64(calls)
	})
	// Grid order is pattern x topology x qos x seed x rate, so the first
	// cell of each topology sits a fixed stride apart.
	stride := g.Size() / (2 * len(kinds))
	l.measure("network.new_us", func() float64 {
		var total time.Duration
		for k := range kinds {
			cfg := g.Cell(k * stride).Config
			total += medianDur(e.sc.count(20), func() time.Duration {
				return timed(func() { sink += int64(network.MustNew(cfg).Now()) })
			})
		}
		return us(total) / float64(len(kinds))
	})
	l.measure("network.reset_us", func() float64 {
		n := network.MustNew(g.Cell(0).Config)
		return us(medianDur(l.reps+2, func() time.Duration {
			return timed(func() {
				for i := 0; i < g.Size(); i++ {
					if err := n.Reset(g.Cell(i).Config); err != nil {
						panic(err)
					}
				}
			})
		})) / cells
	})

	runCells := make([]runner.Cell, g.Size())
	for i := range runCells {
		runCells[i] = g.Cell(i)
	}
	l.measure("runner.overhead_us_per_cell", func() float64 {
		var res []runner.Result
		wall := timed(func() { res = runner.RunCellsCtx(e.ctx, runCells, runner.Options{Workers: 1}) })
		for i := range res {
			wall -= res[i].Elapsed
		}
		return us(wall) / cells
	})

	// One durable run fills a store; its rows, keys and payloads feed the
	// render and store measurements.
	dir := filepath.Join(e.work, "layers-store")
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	journalPath := filepath.Join(dir, "journal")
	journal, err := store.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	durable := func() (*scenario.DurableReport, error) {
		return g.RunDurable(context.Background(), scenario.DurableOpts{
			RunOpts: scenario.RunOpts{Workers: 1}, Store: st, Journal: journal})
	}
	filled, err := durable()
	if err != nil {
		return err
	}
	rows := float64(len(filled.Results))
	l.measure("scenario.csv_us_per_row", func() float64 {
		return us(medianDur(e.sc.count(40), func() time.Duration {
			return timed(func() { sink += int64(len(scenario.CSV(sc.Name, filled.Results))) })
		})) / rows
	})
	l.measure("scenario.json_us_per_row", func() float64 {
		return us(medianDur(e.sc.count(40), func() time.Duration {
			return timed(func() {
				out, err := scenario.JSONReport(sc.Name, filled.Results)
				if err != nil {
					panic(err)
				}
				sink += int64(len(out))
			})
		})) / rows
	})
	l.measure("scenario.durable_warm_us_per_cell", func() float64 {
		var warm *scenario.DurableReport
		d := medianDur(5, func() time.Duration { return timed(func() { warm, err = durable() }) })
		l.check(err == nil && warm.Executed == 0 && warm.Hits == g.Size(), "scenario: warm RunDurable executed cells (%v)", err)
		return us(d) / cells
	})
	if err := journal.Close(); err != nil {
		return err
	}
	l.measure("store.open_journal_us", func() float64 {
		return us(medianDur(e.sc.count(40), func() time.Duration {
			return timed(func() {
				j, err := store.OpenJournal(journalPath)
				if err != nil {
					panic(err)
				}
				sink += int64(j.Len())
				j.Close()
			})
		}))
	})
	payloads := make([][]byte, len(keys))
	var bytes int64
	l.measure("store.get_hit_us", func() float64 {
		return us(medianDur(5, func() time.Duration {
			return timed(func() {
				for i, key := range keys {
					payloads[i], _ = st.Get(key)
				}
			})
		})) / cells
	})
	for i, key := range keys {
		if payloads[i] == nil {
			return fmt.Errorf("store: cell %d missing after the durable run", i)
		}
		info, err := os.Stat(filepath.Join(dir, "v1", key[:2], key+".json"))
		if err != nil {
			return err
		}
		bytes += info.Size()
	}
	l.out["store.bytes_per_entry"] = float64(bytes) / cells
	l.measure("store.get_miss_us", func() float64 {
		absent := make([]string, len(keys))
		for i := range absent {
			absent[i] = store.KeyOf([]byte(fmt.Sprint("absent ", i)))
		}
		return us(medianDur(5, func() time.Duration {
			return timed(func() {
				for _, key := range absent {
					if _, ok := st.Get(key); ok {
						panic("store: hit on a key never stored")
					}
				}
			})
		})) / cells
	})
	// The write side, each sample on a store and journal of its own.
	writeSample := 0
	perWrite := func(write func(st *store.Store, j *store.Journal)) float64 {
		return us(medianDur(l.reps, func() time.Duration {
			writeSample++
			sub := filepath.Join(dir, fmt.Sprint("fresh-", writeSample))
			st, err := store.Open(sub)
			if err != nil {
				panic(err)
			}
			j, err := store.OpenJournal(filepath.Join(sub, "journal"))
			if err != nil {
				panic(err)
			}
			defer j.Close()
			return timed(func() { write(st, j) })
		})) / cells
	}
	l.measure("store.put_us", func() float64 {
		return perWrite(func(st *store.Store, _ *store.Journal) {
			for i, key := range keys {
				if err := st.Put(key, payloads[i]); err != nil {
					panic(err)
				}
			}
		})
	})
	l.measure("store.journal_record_us", func() float64 {
		return perWrite(func(_ *store.Store, j *store.Journal) {
			for _, key := range keys {
				if err := j.Record(key); err != nil {
					panic(err)
				}
			}
		})
	})

	path := filepath.Join(dir, file.name+".toml")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	childMS := func(reps int, args ...string) (float64, error) {
		var err error
		d := medianDur(reps, func() time.Duration {
			res, cerr := e.child(args...)
			if cerr != nil {
				err = cerr
				return 0
			}
			return time.Duration(res.WallS * float64(time.Second))
		})
		return float64(d) / float64(time.Millisecond), err
	}
	l.measure("noctool.startup_ms", func() (ms float64) {
		ms, err = childMS(max(e.sc.count(20), 3), "version")
		return ms
	})
	if err != nil {
		return err
	}
	l.measure("noctool.explain_ms", func() (ms float64) {
		ms, err = childMS(l.reps+2, "sweep", "-explain", path)
		return ms
	})
	return err
}

// paper: every experiment driver `noctool -quick all` (and ablate,
// closed) reaches, once each at the quick schedule on one worker; the
// analytic models (physical, chip, core) are folded into one number.
func (l *layerRun) paper() error {
	p := experiments.QuickParams()
	if l.e.sc.smoke {
		p.Warmup, p.Measure = 150, 750
	}
	p.Seed, p.Workers = l.e.seed, 1
	ms := func(fn func()) func() float64 {
		return func() float64 { return float64(timed(fn)) / float64(time.Millisecond) }
	}
	both := []experiments.Adversarial{experiments.Workload1, experiments.Workload2}
	l.measure("experiments.fig4a_ms", ms(func() { experiments.Fig4(experiments.Uniform, experiments.QuickFig4Rates(), p) }))
	l.measure("experiments.fig4b_ms", ms(func() { experiments.Fig4(experiments.TornadoPattern, experiments.QuickFig4Rates(), p) }))
	l.measure("experiments.preempt_ms", ms(func() { experiments.SaturationPreemptions(p) }))
	l.measure("experiments.table2_ms", ms(func() { experiments.Table2(p) }))
	l.measure("experiments.fig5_ms", ms(func() {
		for _, a := range both {
			experiments.Fig5(a, p)
		}
	}))
	l.measure("experiments.fig6_ms", ms(func() {
		for _, a := range both {
			experiments.Fig6(a, p)
		}
	}))
	l.measure("experiments.motivation_ms", ms(func() { experiments.Motivation(topology.MeshX1, p) }))
	l.measure("experiments.ablate_ms", ms(func() {
		experiments.AblateFrame(topology.DPS, experiments.DefaultFrameSweep, p)
		experiments.AblateQuantum(topology.DPS, experiments.DefaultQuantumSweep, p)
		experiments.AblateWindow(topology.MeshX1, experiments.DefaultWindowSweep, p)
		experiments.AblateMargin(topology.MeshX1, experiments.DefaultMarginSweep, p)
		experiments.AblateQuota(topology.MeshX1, p)
	}))
	l.measure("experiments.closed_ms", ms(func() { experiments.ClosedLoop(p) }))
	l.measure("experiments.analytic_ms", ms(func() {
		experiments.RenderFig3(experiments.Fig3())
		experiments.RenderFig7(experiments.Fig7())
		experiments.RenderChipCost(experiments.ChipCost())
	}))
	l.out["noctool.build_s"] = l.e.buildS
	return nil
}
