package network_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// The engine's bit-identity contracts are one table. Each cell of one
// catalogue runs plainly — the identity row, which for the golden cells
// must reproduce testdata/fingerprints.golden — and under each row, a
// transform that must leave every observable as it was:
//
//   - skip-off: Config.DisableIdleSkip, so the engine ticks every cycle;
//   - chunked-1, -7, -4099: every Run and WarmupAndMeasure span driven as
//     Run calls of that many cycles (4099 is coprime to the long wheel, so
//     chunk ends land on every slot);
//   - reset: the engine is built by Reset from a dirty engine of the next
//     topology and QoS mode, mid-way through Workload 1;
//   - probe: a read-only telemetry probe rides the event wheel;
//   - reference: every allocation round is referenceRound, PVC's round
//     without the verdict memo, the sole-candidate path, the flow queues,
//     roundBlocked or the victim memo.
//
// A new mechanism adds a row or a cell here, not a file.
// FuzzEngineContract holds the rows that need no catalogue to
// configurations nobody listed.

// row is one transform of a cell's run.
type row struct {
	name      string
	skipOff   bool
	quantum   int // cycles per Run call; 0 runs each span in one call
	dirty     bool
	probe     bool
	reference bool
}

var (
	identity     = row{name: "identity"}
	skipOffRow   = row{name: "skip-off", skipOff: true}
	chunkedRows  = []row{{name: "chunked-1", quantum: 1}, {name: "chunked-7", quantum: 7}, {name: "chunked-4099", quantum: 4099}}
	resetRow     = row{name: "reset", dirty: true}
	referenceRow = row{name: "reference", reference: true}
	allRows      = slices.Concat([]row{skipOffRow}, chunkedRows, []row{resetRow, {name: "probe", probe: true}, referenceRow})
)

// net builds the engine of cfg the way the row asks.
func (r row) net(t *testing.T, cfg network.Config) *network.Network {
	t.Helper()
	cfg.DisableIdleSkip = cfg.DisableIdleSkip || r.skipOff
	var n *network.Network
	if r.dirty {
		n = network.MustNew(dirtyConfig(cfg))
		n.Run(1_500)
		if err := n.Reset(cfg); err != nil {
			t.Fatal(err)
		}
	} else {
		n = network.MustNew(cfg)
	}
	if r.reference {
		n.UseReferenceRounds()
	}
	if r.probe {
		n.SetProbe(613, func(sim.Cycle) { n.FillVCOccupancy(nil) })
	}
	return n
}

// dirtyConfig is Workload 1 on the topology and in the QoS mode after
// cfg's: the engine the reset row leaves mid-run and Resets to cfg.
func dirtyConfig(cfg network.Config) network.Config {
	kinds, modes := topology.Kinds(), qos.Modes()
	w := traffic.Workload1(topology.ColumnNodes, 0)
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = modes[(slices.Index(modes, cfg.QoS.Mode)+1)%len(modes)]
	return network.Config{Kind: kinds[(slices.Index(kinds, cfg.Kind)+1)%len(kinds)], QoS: qcfg, Workload: w, Seed: 21}
}

// run advances n by cycles in the row's chunks.
func (r row) run(n *network.Network, cycles int) {
	for cycles > 0 {
		q := cycles
		if r.quantum > 0 {
			q = min(q, r.quantum)
		}
		n.Run(q)
		cycles -= q
	}
}

// warmupAndMeasure is WarmupAndMeasure in the row's chunks.
func (r row) warmupAndMeasure(n *network.Network, warmup, measure int) {
	if r.quantum == 0 {
		n.WarmupAndMeasure(warmup, measure)
		return
	}
	n.Stats().Pause()
	r.run(n, warmup)
	n.MeasureStart()
	r.run(n, measure)
}

// cell is one catalogue entry: one run, in one topology and QoS mode.
type cell struct {
	kind   topology.Kind
	mode   qos.Mode
	name   string
	golden bool // a line of testdata/fingerprints.golden
	probed bool // the cell attaches its own probe, so the probe row passes it by
	// rows are the rows the table runs on the cell: allRows, unless it is
	// a cell that exists to saturate arbitrate's fast paths, where the
	// other rows would cost more than they cover.
	rows  []row
	guard guard
	run   func(t *testing.T, c cell, r row) (*network.Network, string)
}

func (c cell) path() string { return c.kind.String() + "/" + c.mode.String() + "/" + c.name }

// config is the cell's engine over w, with the default QoS configuration
// in the cell's mode.
func (c cell) config(w traffic.Workload, seed uint64) network.Config {
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = c.mode
	return network.Config{Kind: c.kind, Nodes: w.Nodes, QoS: qcfg, Workload: w, Seed: seed}
}

func drain(t *testing.T, n *network.Network) {
	t.Helper()
	completion, drained := n.RunUntilDrained(2_000_000)
	if !drained {
		t.Fatal("did not drain")
	}
	if last := n.Stats().LastDelivery; completion != last {
		t.Fatalf("completion %d != last delivery %d", completion, last)
	}
}

// cellFingerprint folds every observable of a finished cell, and its
// workload controller's, into one comparable string.
func cellFingerprint(n *network.Network, extra string) string {
	st := n.Stats()
	return fmt.Sprintf("%s frames=%d retries=%d drops=%d faultdrops=%d recovered=%d %s",
		workload.Fingerprint(st, n.Now()), n.Frames(), st.TotalRetries,
		st.TotalDropped, st.FaultDrops, st.RecoveredPackets, extra)
}

// stallFaults is a transient fault on a transit link, then a router stall.
func stallFaults(g *topology.Graph) network.FaultConfig {
	return network.FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: int(g.Path(0, noc.NodeID(g.Nodes-1), 0)[0].Out), From: 3_000, Until: 6_000},
			{Kind: noc.FaultRouterStall, Node: 3, From: 7_000, Until: 8_000},
		},
		RetryTimeout: 500,
		MaxRetries:   6,
	}
}

// severFaults takes the hotspot's ejection port down for a window while
// the backlog sits in its flow queues — delivery timeouts then pull
// queued candidates out from under the index, and their retransmissions
// come back carrying old Created stamps — and kills a transit link for
// good mid-window, so the dead-route sweep removes candidates too.
func severFaults(g *topology.Graph) network.FaultConfig {
	eject := g.Path(noc.NodeID(g.Nodes-1), traffic.HotspotNode, 0)
	return network.FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: int(eject[len(eject)-1].Out), From: 3_000, Until: 6_000},
			{Kind: noc.FaultLinkPermanent, Port: int(g.Path(0, noc.NodeID(g.Nodes-1), 0)[0].Out), From: 4_000},
		},
		RetryTimeout: 500,
		MaxRetries:   6,
	}
}

// closedSaturated runs write-shaped closed-loop clients against the
// hotspot node: every client's window parks on the same ejection port.
func closedSaturated(t *testing.T, c cell, r row) (*network.Network, string) {
	n := r.net(t, c.config(workload.ClientWorkload("closed", topology.ColumnNodes), 31))
	ct, err := workload.NewController(n, workload.ClientConfig{
		Outstanding: 8, ThinkMean: 4, Pattern: traffic.HotspotTraffic(nil),
		RequestFlits: 4, ReplyFlits: 1, StopIssuing: 9_000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.warmupAndMeasure(n, 2_000, 6_000)
	drain(t, n)
	if ct.Completed == 0 {
		t.Fatal("closed-loop cell completed no round trips")
	}
	return n, fmt.Sprintf("issued=%d completed=%d rtt99=%d", ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99))
}

// openCell runs an open-loop workload to its stop cycle and drains it,
// under the fault schedule faults builds for the cell's graph and with the
// QoS configuration edited by tune (either may be nil).
func openCell(w traffic.Workload, faults func(*topology.Graph) network.FaultConfig, tune func(*qos.Config)) func(*testing.T, cell, row) (*network.Network, string) {
	return func(t *testing.T, c cell, r row) (*network.Network, string) {
		cfg := c.config(w, 41)
		if tune != nil {
			tune(&cfg.QoS)
		}
		if faults != nil {
			cfg.Faults = faults(topology.NewGraph(c.kind, topology.ColumnNodes))
		}
		n := r.net(t, cfg)
		r.warmupAndMeasure(n, 2_000, 6_000)
		drain(t, n)
		return n, ""
	}
}

// overflowCell runs a 160 000-cycle window and its drain under an armed
// auditor. These cells reach on purpose what the others almost never do:
// the long wheels' overflow heaps, their ordered drain and the late list.
func overflowCell(seed uint64, w traffic.Workload, edit func(*network.Config), attach func(*testing.T, *network.Network) func() string) func(*testing.T, cell, row) (*network.Network, string) {
	return func(t *testing.T, c cell, r row) (*network.Network, string) {
		cfg := c.config(w, seed)
		cfg.AuditEvery = 512
		if edit != nil {
			edit(&cfg)
		}
		n := r.net(t, cfg)
		extra := func() string { return "" }
		if attach != nil {
			extra = attach(t, n)
		}
		r.warmupAndMeasure(n, 2_000, 158_000)
		drain(t, n)
		if err := n.AuditInvariants(); err != nil {
			t.Errorf("post-drain audit: %v", err)
		}
		return n, extra()
	}
}

// guard names what a cell's identity run must have exercised for the
// rows' comparison with it to mean anything.
type guard struct {
	// skips: a saturated cell blocks constantly, so the verdict memo must
	// have answered rounds in the modes that can block.
	skips bool
	// queued: the cell piles a backlog onto one port, so per-flow queueing
	// must have arbitrated over its flow queues.
	queued bool
	// bothWays: a short PVC frame exhausts every quota, so refused
	// candidates meet non-compliant occupants and live victims, and
	// roundBlocked must have answered both "nobody can" and "somebody
	// still can".
	bothWays  bool
	preempts  bool                              // the cell exists for the state preemption leaves behind
	delivers  bool                              // the cell's sources deliver anything at all
	overflows func(network.OverflowCensus) bool // the cold paths the cell exists for
}

var saturated = guard{skips: true, queued: true}

// vacuous reports what o failed to exercise ("" if nothing).
func (g guard) vacuous(c cell, o outcome) string {
	switch {
	case g.skips && c.mode != qos.PerFlowQueue && o.skips == 0:
		return "no allocation round was answered from the verdict memo"
	case g.queued && c.mode == qos.PerFlowQueue && o.queueRounds == 0:
		return "no allocation round ran over the flow queues"
	case g.bothWays && (o.nobody == 0 || o.somebody == 0):
		return fmt.Sprintf("roundBlocked answered %d rounds \"nobody can\", %d \"somebody still can\"", o.nobody, o.somebody)
	case g.preempts && o.preemptions == 0:
		return "no packet was preempted"
	case g.delivers && o.delivered == 0:
		return "nothing was delivered"
	case g.overflows != nil && !g.overflows(o.census):
		return fmt.Sprintf("the cell did not reach the paths it exists for: %+v", o.census)
	}
	return ""
}

// catalogue is every cell the table runs: the golden cells and the
// saturated hotspot, tornado, Workload 2 and closed-loop hotspot in every
// topology and QoS mode; two PVC cells per topology whose 2 000-cycle
// frame exhausts every quota (one provisions its flows 1-16x, so the
// hysteresis steps differ and the victim half of roundBlocked's test
// decides); a faulted per-flow-queue hotspot per topology; the five
// overflow cells; and bursty sources on three topologies.
var catalogue = func() []cell {
	nodes := topology.ColumnNodes
	shortFrame := func(c *qos.Config) { c.FrameCycles = 2_000 }
	weighted := func(c *qos.Config) {
		shortFrame(c)
		for f := range c.Rates {
			c.Rates[f] *= float64(1 + 5*(f%4))
		}
	}
	ref := []row{referenceRow}
	var cells []cell
	add := func(kind topology.Kind, mode qos.Mode, cs ...cell) {
		for _, c := range cs {
			c.kind, c.mode = kind, mode
			if c.rows == nil {
				c.rows = allRows
			}
			cells = append(cells, c)
		}
	}
	for _, kind := range topology.Kinds() {
		for _, mode := range qos.Modes() {
			add(kind, mode, goldenCells...)
			add(kind, mode,
				cell{name: "workload2", rows: ref, guard: saturated, run: openCell(traffic.Workload2(nodes, 8_000), nil, nil)},
				// The hotspot is also Table 2's schedule, so it takes the
				// skip-off row as well.
				cell{name: "hotspot", rows: []row{skipOffRow, referenceRow}, guard: saturated, run: openCell(traffic.Hotspot(nodes, 0.12).WithStop(2_000), nil, nil)},
				cell{name: "tornado", rows: ref, run: openCell(traffic.Tornado(nodes, 0.12).WithStop(8_000), nil, nil)},
				cell{name: "closed-saturated", rows: ref, guard: guard{queued: true}, run: closedSaturated})
		}
		add(kind, qos.PVC,
			cell{name: "hotspot-frame2000", guard: guard{bothWays: true}, run: openCell(traffic.Hotspot(nodes, 0.12).WithStop(6_000), nil, shortFrame)},
			cell{name: "weighted-frame2000", guard: guard{bothWays: true}, run: openCell(traffic.UniformRandom(nodes, 0.14).WithStop(6_000), nil, weighted)})
		add(kind, qos.PerFlowQueue,
			cell{name: "sever-faulted", rows: []row{skipOffRow, referenceRow}, guard: guard{queued: true}, run: openCell(traffic.Hotspot(nodes, 0.03).WithStop(8_000), severFaults, nil)})
	}
	eagerW1 := func(ack sim.Cycle) func(*network.Config) {
		return func(cfg *network.Config) { cfg.QoS.AckDelay, cfg.QoS.MarginClasses = ack, 8 }
	}
	add(topology.MECS, qos.PVC,
		// Every ACK and NACK rides 5000 cycles: past the dense wheel and
		// past the long one.
		cell{name: "oversized-ack-delay", run: overflowCell(21, traffic.Workload1(nodes, 6_000), eagerW1(5_000), nil),
			guard: guard{preempts: true, overflows: func(c network.OverflowCensus) bool { return c.EventSpills > 0 && c.EventDrains > 0 }}},
		// The hotspot's own terminal streams at the hotspot, so its ACKs
		// travel no distance and fire inline, the cycle the delivery does.
		cell{name: "zero-ack-delay", guard: guard{preempts: true}, run: overflowCell(21, traffic.Workload1(nodes, 6_000), eagerW1(0), nil)})
	add(topology.MeshX1, qos.PVC,
		// Retry timers back off 1500, 3000, 6000: the third leaves the long
		// wheel. The stalled router keeps what it holds timing out.
		cell{name: "retry-backoff", run: overflowCell(11, traffic.UniformRandom(nodes, 0.02).WithStop(20_000), func(cfg *network.Config) {
			cfg.Faults = network.FaultConfig{
				Windows:      []noc.FaultWindow{{Kind: noc.FaultRouterStall, Node: 3, From: 3_000, Until: 15_000}},
				RetryTimeout: 1_500,
				MaxRetries:   8,
			}
			cfg.WatchdogCycles = 100_000
		}, nil), guard: guard{overflows: func(c network.OverflowCensus) bool { return c.EventSpills > 10 && c.EventDrains > 10 }}})
	add(topology.DPS, qos.PVC,
		// Clients think for 10 000 cycles on average, and a server's reply
		// is scheduled for the cycle the request is delivered in.
		cell{name: "long-think-time", run: overflowCell(13, workload.ClientWorkload("closed", nodes), nil, func(t *testing.T, n *network.Network) func() string {
			ct, err := workload.NewController(n, workload.ClientConfig{Outstanding: 2, ThinkMean: 10_000, StopIssuing: 120_000, Seed: 17})
			if err != nil {
				t.Fatal(err)
			}
			return func() string {
				return fmt.Sprintf("issued=%d completed=%d rtt99=%d", ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99))
			}
		}), guard: guard{overflows: func(c network.OverflowCensus) bool { return c.EventSpills > 0 && c.EventDrains > 0 && c.LateFires > 0 }}})
	add(topology.MeshX2, qos.PVC,
		// One packet per source every 2000 cycles: a third of the gaps
		// exceed the long horizon.
		cell{name: "rare-arrivals", run: overflowCell(7, traffic.UniformRandom(nodes, 0.0005).WithStop(150_000), nil, nil),
			guard: guard{overflows: func(c network.OverflowCensus) bool { return c.ArrivalSpills > 0 && c.ArrivalDrains > 0 }}})
	for _, kind := range []topology.Kind{topology.MeshX1, topology.MECS, topology.DPS} {
		add(kind, qos.PVC, cell{name: "bursty", guard: guard{delivers: true}, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
			return openCell(network.BurstyWorkload(t).WithStop(9_000), nil, nil)(t, c, r)
		}})
	}
	return cells
}()

// outcome is what a finished run is compared on — its fingerprint and,
// for the cells that reach them, the overflow paths it took — plus the
// counters the guards read.
type outcome struct {
	fp                      string
	census                  network.OverflowCensus
	skips, nobody, somebody uint64
	queueRounds             uint64
	preemptions, delivered  int64
}

// runs holds each (cell, row) run of a pass. The tests after
// TestEngineContractEquivalent are views onto its table under the names
// they had before it, so the first test of a pass to ask for a pair runs
// it and every other test of that pass reads the same run. The pass is
// part of the key: -count=N runs every pair N times.
var runs sync.Map // "pass#path#row" → *sharedRun

type sharedRun struct {
	once sync.Once
	o    outcome
	ok   bool
}

func outcomeOf(t *testing.T, pass int, c cell, r row) outcome {
	t.Helper()
	v, _ := runs.LoadOrStore(fmt.Sprintf("%d#%s#%s", pass, c.path(), r.name), new(sharedRun))
	s, ran := v.(*sharedRun), false
	s.once.Do(func() {
		ran = true
		n, extra := c.run(t, c, r)
		st := n.Stats()
		s.o = outcome{fp: cellFingerprint(n, extra), census: n.OverflowCensus(), skips: n.VerdictSkips(),
			preemptions: st.PreemptionEvents, delivered: st.TotalDelivered}
		s.o.nobody, s.o.somebody = n.BlockedRoundAnswers()
		s.o.queueRounds, _ = n.FlowQueueRounds()
		s.ok = !t.Failed()
	})
	if !s.ok && !ran {
		t.Fatalf("%s: the %s run failed in another test", c.path(), r.name)
	}
	return s.o
}

var (
	passMu sync.Mutex
	passes = map[string]int{} // invocations of each top-level test
	passOf = map[*testing.T]int{}
)

// pass numbers this invocation of the top-level test t.
func pass(t *testing.T) int {
	passMu.Lock()
	defer passMu.Unlock()
	if _, ok := passOf[t]; !ok {
		passes[t.Name()]++
		passOf[t] = passes[t.Name()]
	}
	return passOf[t]
}

// checkCell compares each row's run of c with its identity run, after the
// cell's guard has vouched for the identity run.
func checkCell(t *testing.T, pass int, c cell, rows []row) {
	want := outcomeOf(t, pass, c, identity)
	if msg := c.guard.vacuous(c, want); msg != "" {
		t.Errorf("identity: %s: the comparison is vacuous", msg)
	}
	for _, r := range rows {
		if r.probe && c.probed {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			got := outcomeOf(t, pass, c, r)
			if got.fp != want.fp {
				t.Errorf("%s changed results:\nidentity: %s\n%s: %s", c.path(), want.fp, r.name, got.fp)
			}
			if got.census != want.census {
				t.Errorf("%s took other overflow paths:\nidentity: %+v\n%s: %+v", c.path(), want.census, r.name, got.census)
			}
			if r.reference && got.skips+got.nobody+got.somebody+got.queueRounds != 0 {
				t.Errorf("reference rounds took a fast path: %d memo skips, %d+%d roundBlocked answers, %d flow-queue rounds",
					got.skips, got.nobody, got.somebody, got.queueRounds)
			}
		})
	}
}

// checkCells runs rows (nil: each cell's own) over the catalogue cells
// keep selects, in parallel subtests named by group; a group of several
// cells holds one subtest per cell, named by the rest of its path.
func checkCells(t *testing.T, keep func(cell) bool, rows []row, group func(cell) string) {
	p := pass(t)
	var order []string
	groups := map[string][]cell{}
	for _, c := range catalogue {
		if !keep(c) {
			continue
		}
		g := group(c)
		if groups[g] == nil {
			order = append(order, g)
		}
		groups[g] = append(groups[g], c)
	}
	check := func(t *testing.T, c cell) {
		if rows == nil {
			checkCell(t, p, c, c.rows)
		} else {
			checkCell(t, p, c, rows)
		}
	}
	for _, g := range order {
		t.Run(g, func(t *testing.T) {
			t.Parallel()
			if cs := groups[g]; len(cs) == 1 {
				check(t, cs[0])
				return
			}
			for _, c := range groups[g] {
				t.Run(strings.TrimPrefix(c.path(), g+"/"), func(t *testing.T) {
					t.Parallel()
					check(t, c)
				})
			}
		})
	}
}

func TestEngineContractEquivalent(t *testing.T) {
	checkCells(t, func(cell) bool { return true }, nil, cell.path)
}

// The views: each runs the rows and cells of the test it replaced under
// that test's name and subtest names, from the same table.

func byName(c cell) string     { return c.name }
func byKind(c cell) string     { return c.kind.String() }
func byKindMode(c cell) string { return c.kind.String() + "/" + c.mode.String() }

// byOldPath is the cell's path under the name it had in the tests the
// views replace.
func byOldPath(c cell) string {
	name := map[string]string{"closed-saturated": "closed-hotspot", "sever-faulted": "faulted"}[c.name]
	if name == "" {
		name = c.name
	}
	return byKindMode(c) + "/" + name
}

// named selects the cells called one of names.
func named(names ...string) func(cell) bool {
	return func(c cell) bool { return slices.Contains(names, c.name) }
}

var (
	verdictCells = []string{"workload1", "workload2", "hotspot", "tornado", "faulted", "closed-saturated"}
	ackDelay     = named("oversized-ack-delay", "zero-ack-delay")
	golden       = func(c cell) bool { return c.golden }
	reference    = []row{referenceRow}
)

func TestVerdictMemoMechanicallyEquivalent(t *testing.T) {
	checkCells(t, named(verdictCells...), reference, byOldPath)
}

func TestBlockedRoundsMechanicallyEquivalent(t *testing.T) {
	checkCells(t, named(append(verdictCells, "hotspot-frame2000", "weighted-frame2000")...), reference, byOldPath)
}

func TestFlowQueuesMechanicallyEquivalent(t *testing.T) {
	keep := named("workload1", "workload2", "hotspot", "tornado", "closed-saturated", "sever-faulted")
	checkCells(t, func(c cell) bool { return c.mode == qos.PerFlowQueue && keep(c) }, reference,
		func(c cell) string { return strings.Replace(byOldPath(c), "/per-flow-queue", "", 1) })
}

func TestIdleSkipMechanicallyEquivalent(t *testing.T) {
	checkCells(t, func(c cell) bool { return c.golden && c.name != "faulted" }, []row{skipOffRow}, byKindMode)
}

func TestFaultedRunSkipEquivalence(t *testing.T) {
	checkCells(t, named("faulted", "sever-faulted"), []row{skipOffRow}, byKindMode)
}

func TestIdleSkipEquivalentWithBurstySources(t *testing.T) {
	checkCells(t, named("bursty"), []row{skipOffRow}, byKind)
}

func TestIdleSkipEquivalentUnderPreemptionPressure(t *testing.T) {
	checkCells(t, ackDelay, []row{skipOffRow}, byName)
}

// TestChunkedRunMatchesUnchunked: the skip leg is the chunked rows, the
// ticked leg the skip-off row, over the golden cells; saturated and
// early-drain repeat the chunked rows at the two load extremes.
func TestChunkedRunMatchesUnchunked(t *testing.T) {
	checkCells(t, golden, chunkedRows, func(c cell) string { return byKindMode(c) + "/skip" })
	checkCells(t, golden, []row{skipOffRow}, func(c cell) string { return byKindMode(c) + "/ticked" })
	at := func(paths ...string) func(cell) bool {
		return func(c cell) bool { return slices.Contains(paths, c.path()) }
	}
	checkCells(t, at("mesh_x2/pvc/workload1", "mesh_x2/pvc/hotspot-frame2000"), chunkedRows, func(cell) string { return "saturated" })
	checkCells(t, at("mesh_x2/pvc/lowrate"), chunkedRows, func(cell) string { return "early-drain" })
}

func TestResetMatchesFreshBuild(t *testing.T) {
	checkCells(t, golden, []row{resetRow}, byKindMode)
}

func TestResetMatchesFreshBuildUnderPreemption(t *testing.T) {
	checkCells(t, ackDelay, []row{resetRow}, byName)
}

func TestOverflowPathsMechanicallyEquivalent(t *testing.T) {
	checkCells(t, named("oversized-ack-delay", "zero-ack-delay", "retry-backoff", "long-think-time", "rare-arrivals"), allRows, byName)
}

// FuzzEngineContract runs one fuzzed configuration plainly, with reference
// rounds, ticked and chunked, and requires one fingerprint of all four.
// The fuzzer picks the topology, the column height (2-16), the QoS mode
// and frame, the pattern and rate, one fault window and the chunk
// quantum; the seeds are catalogue cells.
func FuzzEngineContract(f *testing.F) {
	// kind, nodes-2, mode, frame-200, pattern, rate, fault, from, span, quantum-1
	f.Add(uint8(0), uint8(6), uint8(0), uint16(1_800), uint8(2), uint8(240), uint8(0), uint16(0), uint16(0), uint16(6))
	f.Add(uint8(3), uint8(6), uint8(1), uint16(49_800), uint8(2), uint8(60), uint8(1+4*9), uint16(1_000), uint16(1_500), uint16(4_098))
	f.Add(uint8(4), uint8(6), uint8(2), uint16(49_800), uint8(1), uint8(240), uint8(0), uint16(0), uint16(0), uint16(0))
	f.Add(uint8(1), uint8(6), uint8(0), uint16(49_800), uint8(0), uint8(40), uint8(3+4*3), uint16(2_000), uint16(500), uint16(6))
	f.Add(uint8(2), uint8(14), uint8(1), uint16(49_800), uint8(0), uint8(80), uint8(2+4*5), uint16(800), uint16(0), uint16(99))
	f.Add(uint8(3), uint8(0), uint8(0), uint16(800), uint8(1), uint8(255), uint8(0), uint16(0), uint16(0), uint16(0))
	f.Fuzz(func(t *testing.T, kindIdx, nodes, modeIdx uint8, frame uint16, patIdx, rate, fault uint8, from, span, quantum uint16) {
		kinds, modes := topology.Kinds(), qos.Modes()
		c := cell{kind: kinds[int(kindIdx)%len(kinds)], mode: modes[int(modeIdx)%len(modes)]}
		height := 2 + int(nodes)%15
		pattern := []traffic.Pattern{traffic.UniformTraffic(), traffic.TornadoTraffic(), traffic.HotspotTraffic(nil)}[int(patIdx)%3]
		w, err := traffic.Synthetic(pattern, height, 0.002+float64(rate)/2048, traffic.Burst{})
		if err != nil {
			t.Skip(err)
		}
		cfg := c.config(w.WithStop(2_000), 1)
		cfg.QoS.FrameCycles = 200 + sim.Cycle(frame)
		if fault%4 != 0 {
			win := noc.FaultWindow{Kind: noc.FaultLinkTransient, From: 1 + sim.Cycle(from)%3_000}
			win.Until = win.From + 1 + sim.Cycle(span)%3_000
			switch fault % 4 {
			case 2:
				win.Kind, win.Until = noc.FaultLinkPermanent, 0
			case 3:
				win.Kind = noc.FaultRouterStall
			}
			win.Port = int(fault/4) % topology.NumPorts(c.kind, height)
			win.Node = int(fault/4) % height
			cfg.Faults = network.FaultConfig{Windows: []noc.FaultWindow{win}, RetryTimeout: 400, MaxRetries: 6}
		}
		run := func(r row) string {
			n := r.net(t, cfg)
			r.warmupAndMeasure(n, 500, 1_500)
			drain(t, n)
			return cellFingerprint(n, "")
		}
		want := run(identity)
		for _, r := range []row{referenceRow, skipOffRow, {name: "chunked", quantum: 1 + int(quantum)%5_000}} {
			if got := run(r); got != want {
				t.Fatalf("%s changed results on %s, %d nodes:\nidentity: %s\n%s: %s", r.name, c.path(), height, want, r.name, got)
			}
		}
	})
}
