// Package network is the simulator of the QoS-enabled shared region:
// eight column routers of one of five topologies, virtual cut-through
// flow control, PVC preemptive quality-of-service with its ACK network
// and source retransmission windows, and the two reference policies
// (idealized per-flow queueing and no-QoS round-robin).
//
// The engine is packet-granular with exact flit timing: a transfer
// occupies its output port for one cycle per flit, and head/tail arrival
// cycles are tracked per hop, which under virtual cut-through (no flit
// interleaving within a VC) is equivalent to flit-level simulation for
// every metric the paper reports.
//
// # Data-oriented core
//
// The engine's state lives in flat arrays, not object graphs:
//
//   - Offered and in-network packets occupy a single arena ([]pkt)
//     addressed by 32-bit generation-guarded handles (pktH). Candidate
//     lists, VC ownership, retransmission queues and events all store
//     handles, so every hot container is a dense, pointer-free array the
//     garbage collector never scans, and the free list is an index
//     stack — recycling a packet is a generation bump and a push. The
//     backlog behind a source's injection VC holds no slot: it waits as
//     32-byte pending records, and offer mints a slot for the head only,
//     so the arena is bounded by the network, not by offered load.
//   - Router state is struct-of-arrays: ports, buffers and sources are
//     value slices indexed by ID, and each buffer's virtual-channel
//     state is parallel arrays (owner handles, release generations) with
//     a free-VC occupancy bitmap, so VC allocation and victim search are
//     word scans instead of pointer walks.
//   - PVC priorities are cached in a flat per-port per-flow array
//     (qos.FlowTable), maintained eagerly on Record and cleared on frame
//     flush, so arbitration reads one word per candidate instead of
//     re-deriving quantize-and-scale per candidate per cycle.
//   - Everything scheduled is a 4- to 32-byte pointer-free record in the
//     bucket of its cycle on a timing wheel (wheel.go): filing and firing
//     are O(1) and never trigger a write barrier. Six wheels of one type
//     share one occupancy map, so "is anything due now" is a bit test and
//     "when is anything due next" one scan.
//   - Every output port carries one epoch counter that moves on
//     everything an arbitration verdict can depend on — waiter-set
//     edits, VC allocations and releases in the buffers it feeds (each
//     has one feeder, topology.Graph.Feeder), the PVC frame flush. A
//     round that neither granted nor preempted, and an inversion scan
//     that found no victim, are not re-run until it moves: blocked
//     requesters are re-evaluated when a credit returns, as in hardware.
//   - A round whose best candidate is refused asks once whether any other
//     could be granted — a VC it may take or, where the preemption logic
//     exists, a victim above its threshold, a buffer's worst victim being
//     the same whoever asks (worstVictim) and found once a round — and
//     ends blocked if none can, instead of refusing them one by one in
//     priority order: only credit-holding requesters bid.
//   - Under per-flow queueing a port whose backlog has grown past a
//     handful files its candidates into one sorted queue per flow plus a
//     bitmap of the non-empty ones (flowQueues), and its allocation round
//     compares queue heads — O(active flows) however deep the unlimited
//     VC pools let the backlog run.
//
// The layout is mechanical: results are bit-identical to the historical
// pointer-based engine (pinned by the equivalence and determinism
// suites), and a Network can be Reset to a new configuration reusing
// every backing allocation — sweep workers run whole grids on one arena.
//
// # Hybrid tick/event-driven execution
//
// Step is tick-driven — arbitration, preemption and frame logic are
// expressed per cycle, exactly as the hardware clocks them — but the cost
// of a cycle is proportional to the work in it, not to the machine size:
//
//   - Injection is sampled by inter-arrival time, not per cycle. Each
//     source carries a precomputed next-arrival cycle whose gaps are drawn
//     geometrically via inverse CDF (sim.RNG.Geometric) with the Bernoulli
//     process's per-cycle packet probability, which reproduces that
//     process exactly (memorylessness: every post-arrival cycle is an
//     independent trial) at one RNG draw per packet instead of one per
//     source per cycle.
//   - Arbitration visits only ports holding candidates: a bitmap over
//     port IDs set by candidate registration and walked in ascending
//     order, replacing the all-ports scan while preserving the canonical
//     port order.
//
// On top of that, Run and RunUntilDrained are event-driven across idle
// stretches: when no port holds a candidate and no wheel holds a record
// for the current cycle, nothing can happen until the earliest of (the
// next cycle any wheel holds a record for, next PVC frame boundary, and
// per offerable source, its injection VC freeing), so the clock jumps
// there and that cycle is stepped. Skipped cycles would have executed
// no state change, making the fast-forward provably mechanical: with
// Config.DisableIdleSkip the engine ticks through every cycle and
// produces bit-identical results (the contract table's skip-off row,
// contract_test.go).
// Low-load cells of the paper's latency-load sweeps thus cost O(packets),
// not O(cycles). A chunked Run is state-identical to an unchunked one
// (fast-forwards clamp to the chunk boundary; skipped cycles execute
// nothing), which is what lets WarmupAndMeasure, probes and callers that
// advance a network piecewise split a span anywhere (the contract
// table's chunked rows).
//
// # Workload attachment
//
// External workload drivers (internal/workload) attach through three
// surfaces that are zero-cost and bit-identical when unused (see
// inject.go): SetDeliveryHook observes every delivery, SetGenHook
// observes every generation as a trace record, and ScheduleInjection
// generates a packet at an exact future cycle through the event wheel —
// so closed-loop client wake-ups are first-class events the idle
// fast-forward accounts for exactly. Sources can also replay a
// prerecorded event stream verbatim (traffic.Spec.Replay) through the
// ordinary arrival schedule, consuming no randomness. Unlike the
// diagnostic preempt/grant hooks, none of these suppress packet
// recycling, and Reset clears them — drivers re-attach per cell.
package network

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Config assembles one simulated shared-region network.
type Config struct {
	Kind  topology.Kind
	Nodes int // column height; defaults to topology.ColumnNodes, at most 32767
	// QoS is only read, its Rates vector included (flow tables and the
	// reserved quota derive their own arrays), so configurations may
	// share one.
	QoS qos.Config
	// Workload supplies the traffic injectors. QoS.Rates must cover the
	// workload's full flow population (active or not).
	Workload traffic.Workload
	Seed     uint64
	// DisableIdleSkip forces Run/RunUntilDrained to tick through every
	// cycle instead of fast-forwarding the clock over provably idle
	// windows. Skipping is mechanical — results are bit-identical either
	// way (the contract table's skip-off row) — so the knob exists only
	// for that proof and for debugging.
	DisableIdleSkip bool

	// Faults schedules hardware fault injection and configures end-to-end
	// recovery (see fault.go). The zero value disables both, at zero
	// cost: a fault-free run is fingerprint-identical to an engine
	// without the subsystem.
	Faults FaultConfig
	// WatchdogCycles, when positive, arms the no-forward-progress
	// watchdog: if candidates are waiting and no arbitration grant or
	// delivery happens for this many cycles, the engine panics with a
	// *WatchdogError carrying a structured diagnostic dump and a repro
	// trace of every generation so far (see watchdog.go). Choose a window
	// comfortably above the configured protocol delays (ACK round trips,
	// retry backoff) to avoid tripping on legitimate waits.
	WatchdogCycles sim.Cycle
	// AuditEvery, when positive, runs the invariant auditor every
	// AuditEvery stepped cycles and panics on the first violation (see
	// audit.go). The TANOQ_AUDIT environment variable enables it
	// process-wide for networks that leave this at zero.
	AuditEvery sim.Cycle
}

// Network is one simulated shared-region column.
type Network struct {
	cfg   Config
	graph *topology.Graph
	mode  qos.Mode

	clock sim.Clock
	rng   sim.RNG
	ports []outPort
	bufs  []inBuf
	srcs  []source
	quota *qos.ReservedQuota
	frame *qos.FrameTimer
	coll  *stats.Collector

	// parkedTables/parkedQuota/parkedFrame hold the QoS state objects
	// across a Reset into a mode that does not use them, so a sweep
	// whose qos axis interleaves NoQoS with PVC cells keeps reusing the
	// same backing arrays instead of reallocating them at every mode
	// boundary (the tables' per-flow arrays are the bulk of a port's
	// footprint).
	parkedTables []*qos.FlowTable
	parkedQuota  *qos.ReservedQuota
	parkedFrame  *qos.FrameTimer

	nextPktID  uint64
	inFlight   int // packets injected and neither delivered nor dead
	frameCount int32
	// margin is the preemption hysteresis in quantized classes.
	margin noc.Priority

	// arena holds every offered or in-network packet; slot 0 is the
	// permanent nil-handle dummy. free is the stack of recycled slots
	// (see arena.go).
	arena []pkt
	free  []pktH

	// The engine's calendars (wheel.go, events.go): cal is the occupancy
	// map they share. events is the general one. arrivals
	// holds each generating source, by index, at the cycle of its next
	// packet, so generation costs O(packets), not O(sources x cycles);
	// records due the same cycle fire in source-index order, like the
	// historical all-sources scan. A source leaves it for good once its
	// next arrival would land at or past its StopAt deadline (see
	// scheduleArrival). relw, headw, delivw and ackw carry the four dense
	// per-packet kinds.
	cal      calendar
	events   eventQueue
	arrivals wheel[int32]
	relw     wheel[relRec]
	headw    wheel[pktRec]
	delivw   wheel[pktRec]
	ackw     wheel[pktRec]
	// offerSrcs is the subset of sources holding an injectable packet
	// (queued or awaiting retransmission) but not yet offering one, kept
	// sorted by source index. Membership is exact: markOfferable admits
	// only sources with real pending work, and the offer pass drops a
	// source the moment its packet is offered. Step's offer scan and the
	// drain test touch only this list.
	offerSrcs []int32
	// activeW is a bitmap over port IDs marking the ports holding
	// arbitration candidates; Step arbitrates its set bits (ascending,
	// which is exactly the ID-sorted order of the historical all-ports
	// scan) instead of scanning every port. waiterCount is the total
	// candidate population across all ports — zero means no arbitration
	// work can happen this cycle, the precondition for idle
	// fast-forwarding.
	activeW     []uint64
	waiterCount int
	// bidScratch and failedScratch are reusable arbitration buffers
	// (see arbitrate); valid only within one arbitrate call.
	bidScratch    []bid
	failedScratch []int32
	// verdictSkips counts rounds answered from a blocked-verdict memo.
	verdictSkips uint64

	// preemptHook and grantHook, when non-nil, observe every preemption
	// and grant (tests and diagnostics). Handles passed to a hook are
	// stable for the rest of the run: installing either hook suppresses
	// slot recycling.
	preemptHook func(*inBuf, pktH)
	grantHook   func(*outPort, pktH)

	// deliveryHook and genHook are the workload-attachment surface (see
	// inject.go): value-passing observers of deliveries and generations.
	// Unlike the diagnostic hooks above they never suppress recycling,
	// and Reset clears them — workload drivers re-attach per cell.
	deliveryHook func(Delivery)
	genHook      func(traffic.TraceRecord)
	// abortFlag, when non-nil, is polled at every Run/RunUntilDrained
	// iteration: a set flag aborts the run with *AbortError (see
	// abort.go). Installed per cell by deadline-armed runners; Reset
	// clears it.
	abortFlag *atomic.Bool
	// probeFn/probeEvery/markFn are the telemetry attachment surface
	// (probe.go): a periodic read-only sampling tick riding the event
	// wheel and a phase-transition observer. Per-cell like the workload
	// hooks — Reset clears all three.
	probeFn    func(sim.Cycle)
	probeEvery sim.Cycle
	markFn     func(ProbeMark)
	// injPool parks externally scheduled injections between
	// ScheduleInjection and their evInject firing; injFree is its
	// recycled-slot stack. Both are lazily allocated: open-loop runs
	// never touch them.
	injPool []pendingInj
	injFree []int32

	// Fault-injection, recovery and self-check state (fault.go,
	// watchdog.go, audit.go). fltDown/fltDead are per-port bitmaps (link
	// currently unusable / permanently failed), fltStall a per-node stall
	// bitmap; all are recomputed wholesale at every scheduled fault edge.
	// sysEvents counts pending bookkeeping events (fault edges, the
	// watchdog timer) that must not keep an otherwise-drained network
	// looking busy.
	fltOn        bool
	fltHasDead   bool
	fltDown      []uint64
	fltDead      []uint64
	fltStall     []uint64
	retryTimeout sim.Cycle
	maxRetries   int32
	sysEvents    int
	// wdWindow/lastProgress drive the no-forward-progress watchdog. It
	// holds no copy of the injection stream: a repro trace is a
	// generation-hook recording of the same deterministic run.
	wdWindow     sim.Cycle
	lastProgress sim.Cycle
	// auditEvery/auditAt pace the invariant auditor.
	auditEvery sim.Cycle
	auditAt    sim.Cycle

	// flowQs[i] indexes port i's candidates by flow under per-flow
	// queueing (flowqueue.go): a Reset into that mode builds and re-seats
	// it, no other mode reads it, and like the parked tables it outlives
	// their cells. It sits beside the ports, not in them: one more pointer
	// in outPort (104 -> 112 B) cost PVC sweeps half a percent
	// (docs/LEDGER.md (d)).
	flowQs []*flowQueues

	// victims is an allocation round's memo of worstVictim answers, one
	// per buffer asked about (see roundVictim); roundsBlocked and
	// roundsHopeful count roundBlocked's two answers. Last for the reason
	// flowQs sits where it does: no other field's offset moves.
	victims                      []victimMemo
	roundsBlocked, roundsHopeful uint64

	// refRound, set only by tests (reference_test.go), replaces Step's
	// allocation rounds — arbitrate behind its verdict memo — with the
	// plain reference round the contract table checks them against. It
	// survives Reset, like the diagnostic hooks.
	refRound func(*outPort, sim.Cycle)
}

// New builds a network from the configuration. It validates that the QoS
// flow population covers the workload.
func New(cfg Config) (*Network, error) {
	n := &Network{}
	if err := n.Reset(cfg); err != nil {
		return nil, err
	}
	return n, nil
}

// Reset rebuilds the network for a fresh simulation of cfg, reusing every
// backing allocation the previous configuration left behind — the packet
// arena, the timing wheels, per-port candidate lists and flow tables, buffer
// VC arrays, source queues and scratch buffers. A Reset network is
// bit-identical to a freshly built one (the contract table's reset row): all
// randomness derives from cfg.Seed and every piece of logical state is
// re-initialized here. Sweep drivers lean on this to run a whole grid of
// cells on one allocation per worker (runner.RunCellsCtx).
//
// The measurement collector is freshly allocated — results escape to the
// caller — and diagnostic hooks are preserved. Workload attachments
// (delivery/generation hooks, pending scheduled injections) are cleared:
// they belong to the previous cell's driver, which must re-attach
// (runner.Cell.Setup runs after every Reset for exactly this).
func (n *Network) Reset(cfg Config) error {
	if cfg.Nodes == 0 {
		cfg.Nodes = topology.ColumnNodes
	}
	if cfg.Nodes > maxNodes {
		return fmt.Errorf("network: column of %d nodes exceeds the supported %d", cfg.Nodes, maxNodes)
	}
	if err := cfg.QoS.Validate(); err != nil {
		return err
	}
	if err := cfg.Faults.validate(cfg.Kind, cfg.Nodes); err != nil {
		return err
	}
	if cfg.WatchdogCycles < 0 {
		return fmt.Errorf("network: negative watchdog window %d", cfg.WatchdogCycles)
	}
	if cfg.AuditEvery < 0 {
		return fmt.Errorf("network: negative audit interval %d", cfg.AuditEvery)
	}
	if want := cfg.Workload.TotalFlows(); len(cfg.QoS.Rates) != want {
		return fmt.Errorf("network: QoS covers %d flows, workload needs %d", len(cfg.QoS.Rates), want)
	}
	for _, s := range cfg.Workload.Specs {
		if int(s.Node) < 0 || int(s.Node) >= cfg.Nodes {
			return fmt.Errorf("network: injector flow %d at node %d outside column of %d", s.Flow, s.Node, cfg.Nodes)
		}
		if err := s.Validate(); err != nil {
			return fmt.Errorf("network: %w", err)
		}
		if s.Replay != nil {
			for i, ev := range s.Replay.Events {
				if int(ev.Dst) >= cfg.Nodes {
					return fmt.Errorf("network: replay flow %d event %d destination %d outside column of %d",
						s.Flow, i, ev.Dst, cfg.Nodes)
				}
			}
		}
	}

	n.cfg = cfg
	n.mode = cfg.QoS.Mode
	n.clock.Reset()
	n.rng.Seed(cfg.Seed ^ 0x74616e6f71) // "tanoq"
	n.coll = stats.NewCollector(cfg.Workload.TotalFlows())
	n.margin = noc.Priority(cfg.QoS.EffectiveMargin())
	if n.graph == nil || n.graph.Kind != cfg.Kind || n.graph.Nodes != cfg.Nodes {
		n.graph = topology.NewGraph(cfg.Kind, cfg.Nodes)
	}

	if cap(n.ports) < len(n.graph.Ports) {
		n.ports = make([]outPort, len(n.graph.Ports))
	}
	n.ports = n.ports[:len(n.graph.Ports)]
	for i := range n.ports {
		p := &n.ports[i]
		p.id = topology.PortID(i)
		p.spec = n.graph.Ports[i]
		p.nextArb = 0
		if p.waiters == nil {
			p.waiters = make([]pktH, 0, waitersCap)
		}
		p.waiters = p.waiters[:0]
		p.rr = qos.RoundRobin{}
		// No verdict survives Reset: epoch restarts above both stamps.
		p.epoch, p.scanAt, p.blockedAt = 1, 0, 0
		if n.mode != qos.NoQoS {
			if p.table == nil {
				if k := len(n.parkedTables); k > 0 {
					p.table = n.parkedTables[k-1]
					n.parkedTables[k-1] = nil
					n.parkedTables = n.parkedTables[:k-1]
				}
			}
			if p.table == nil {
				p.table = qos.NewFlowTableWithQuantum(cfg.QoS.Rates, cfg.QoS.EffectiveQuantum())
			} else {
				p.table.Reinit(cfg.QoS.Rates, cfg.QoS.EffectiveQuantum())
			}
		} else if p.table != nil {
			n.parkedTables = append(n.parkedTables, p.table)
			p.table = nil
		}
	}
	if n.mode == qos.PerFlowQueue {
		n.reinitFlowQueues(cfg.Workload.TotalFlows())
	}

	if cap(n.bufs) < len(n.graph.Bufs) {
		n.bufs = make([]inBuf, len(n.graph.Bufs))
	}
	n.bufs = n.bufs[:len(n.graph.Bufs)]
	for i := range n.bufs {
		// Re-seated every Reset: n.ports may have been reallocated above.
		n.bufs[i].reinit(topology.BufID(i), n.graph.Bufs[i], n.mode == qos.PerFlowQueue, &n.ports[n.graph.Feeder[i]].epoch)
	}

	if n.mode == qos.PVC && !cfg.QoS.DisableReservedQuota {
		if n.quota == nil {
			n.quota, n.parkedQuota = n.parkedQuota, nil
		}
		if n.quota == nil {
			n.quota = qos.NewReservedQuota(cfg.QoS.Rates, cfg.QoS.FrameCycles)
		} else {
			n.quota.Reinit(cfg.QoS.Rates, cfg.QoS.FrameCycles)
		}
	} else if n.quota != nil {
		n.parkedQuota, n.quota = n.quota, nil
	}
	if n.mode == qos.PVC {
		if n.frame == nil {
			n.frame, n.parkedFrame = n.parkedFrame, nil
		}
		if n.frame == nil {
			n.frame = qos.NewFrameTimer(cfg.QoS.FrameCycles)
		} else {
			n.frame.Reinit(cfg.QoS.FrameCycles)
		}
	} else if n.frame != nil {
		n.parkedFrame, n.frame = n.frame, nil
	}

	n.nextPktID = 0
	n.inFlight = 0
	n.frameCount = 0
	if n.arena == nil {
		// Slot 0 is the permanent nil-handle dummy. The arena and the
		// engine's other reusable containers are pre-sized to a
		// generous working set so that steady-state operation never
		// grows them: amortized append-doubling on stochastic depth
		// spikes was the engine's last residual allocation source
		// (TestStepAllocationFreeAtSteadyState documents the history).
		n.arena = make([]pkt, 1, arenaCap)
		n.free = make([]pktH, 0, arenaCap)
		n.bidScratch = make([]bid, 0, waitersCap)
		n.failedScratch = make([]int32, 0, waitersCap)
		n.victims = make([]victimMemo, 0, waitersCap)
	}
	n.arena = n.arena[:1]
	n.free = n.free[:0]
	n.deliveryHook = nil
	n.genHook = nil
	n.abortFlag = nil
	n.probeFn = nil
	n.probeEvery = 0
	n.markFn = nil
	n.injPool = n.injPool[:0]
	n.injFree = n.injFree[:0]
	n.events.reset(&n.cal, longBits, eventBucketCap)
	n.arrivals.reset(&n.cal, longBits, bucketCap)
	for _, w := range [...]interface{ reset(*calendar, uint, int) }{&n.relw, &n.headw, &n.delivw, &n.ackw} {
		w.reset(&n.cal, denseBits, bucketCap)
	}
	n.cal = calendar{}
	n.events.late, n.events.seq, n.events.lateFires = n.events.late[:0], 0, 0
	if n.offerSrcs == nil {
		n.offerSrcs = make([]int32, 0, len(cfg.Workload.Specs))
	}
	n.offerSrcs = n.offerSrcs[:0]
	if nw := (len(n.ports) + 63) / 64; cap(n.activeW) < nw {
		n.activeW = make([]uint64, nw)
	} else {
		n.activeW = n.activeW[:nw]
		for i := range n.activeW {
			n.activeW[i] = 0
		}
	}
	n.waiterCount = 0
	n.verdictSkips, n.roundsBlocked, n.roundsHopeful = 0, 0, 0

	if cap(n.srcs) < len(cfg.Workload.Specs) {
		n.srcs = make([]source, len(cfg.Workload.Specs))
	}
	n.srcs = n.srcs[:len(cfg.Workload.Specs)]
	for i, spec := range cfg.Workload.Specs {
		s := &n.srcs[i]
		s.reinit(&n.rng, spec, int32(i))
		n.scheduleArrival(s, 0)
	}
	n.reinitFaults(cfg)
	return nil
}

// arrivalEligible reports whether the source's precomputed next arrival
// will actually happen: an inactive sampler never emits, and an arrival
// landing at or past the injector's StopAt deadline is one the modeled
// Bernoulli process would never produce — the source is permanently done
// generating. The initial scheduling and Step's re-filing both go through
// scheduleArrival and this one predicate, so they can never drift apart.
func (n *Network) arrivalEligible(s *source) bool {
	if s.replay != nil {
		// Replay sources are scheduled while records remain; the recorded
		// stream is explicit, so StopAt does not apply.
		return int(s.replayPos) < len(s.replay.Events)
	}
	if !s.arr.Active() {
		return false
	}
	return !(s.spec.StopAt > 0 && s.nextArrival >= s.spec.StopAt)
}

// scheduleArrival (re-)enters a source into the arrival wheel, unless it
// is permanently done generating (see arrivalEligible), in which case it
// leaves the schedule for good. Buckets are filed in any order: Step sorts
// the one it fires.
func (n *Network) scheduleArrival(s *source, now sim.Cycle) {
	if !n.arrivalEligible(s) {
		return
	}
	if w, at := &n.arrivals, s.nextArrival; at-now >= w.size() {
		w.spill(s.idx, uint64(s.idx), at)
	} else {
		w.file(s.idx, max(at, now))
	}
}

// markOfferable puts a source on the offerable list if it actually has an
// injectable packet and is not already offering or listed. The sorted
// insert keeps the list in source-index order, matching the historical
// all-sources offer scan.
func (n *Network) markOfferable(s *source) {
	if s.inOffer || s.offering != noPkt {
		return
	}
	if s.retx.empty() && s.queue.empty() {
		return
	}
	s.inOffer = true
	n.offerSrcs = append(n.offerSrcs, s.idx)
	for i := len(n.offerSrcs) - 1; i > 0 && n.offerSrcs[i-1] > s.idx; i-- {
		n.offerSrcs[i], n.offerSrcs[i-1] = n.offerSrcs[i-1], n.offerSrcs[i]
	}
}

// MustNew is New that panics on configuration errors, for tests and
// experiment drivers with static configurations.
func MustNew(cfg Config) *Network {
	n, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Stats exposes the measurement collector.
func (n *Network) Stats() *stats.Collector { return n.coll }

// Config returns the configuration this network was last (re)built for.
// Workload drivers use it to resolve injector indices and populations.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current simulation cycle.
func (n *Network) Now() sim.Cycle { return n.clock.Now() }

// Graph exposes the topology graph (read-only use).
func (n *Network) Graph() *topology.Graph { return n.graph }

// Mode returns the QoS policy in effect.
func (n *Network) Mode() qos.Mode { return n.mode }

// InFlight returns the number of packets injected but not yet delivered
// (or awaiting retransmission).
func (n *Network) InFlight() int { return n.inFlight }

// Step advances the simulation by one cycle.
func (n *Network) Step() {
	now := n.clock.Now()
	n.fireReleases(now)
	n.processEvents(now)
	n.fireDelivers(now)
	n.fireAcks(now)
	n.fireHeads(now)
	if n.frame != nil && n.frame.Expired(now) {
		for i := range n.ports {
			n.ports[i].flush()
		}
		if n.quota != nil {
			n.quota.Refill()
		}
		n.frameCount++
	}
	// Fire exactly the sources whose arrival cycle has come, in
	// source-index order like the historical all-sources scan, and re-file
	// each at its next draw. A replay source whose next record repeats
	// this cycle generates it at once: in (cycle, index) order it is next.
	if len(n.arrivals.far.items) > 0 {
		n.arrivals.drain(now, nil)
	}
	if b := n.arrivals.due(now); len(b) > 0 {
		for i := 1; i < len(b); i++ { // a few entries: sorted in place, no call
			for j := i; j > 0 && b[j-1] > b[j]; j-- {
				b[j-1], b[j] = b[j], b[j-1]
			}
		}
		for _, idx := range b {
			s := &n.srcs[idx]
			n.generate(s, now)
			for s.nextArrival <= now && n.arrivalEligible(s) {
				n.generate(s, now)
			}
			n.scheduleArrival(s, now)
		}
		n.arrivals.done(now)
	}
	// Everything filed for this cycle has fired, and nothing below files
	// a record nearer than the next one.
	n.cal.clear(now)
	// Offer pass over the sources actually holding injectable packets, in
	// source-index order. A source whose packet just went on offer (or
	// that somehow lost its backlog) leaves the list; it re-enters
	// through markOfferable when new work appears.
	liveSrcs := n.offerSrcs[:0]
	for _, si := range n.offerSrcs {
		s := &n.srcs[si]
		n.offer(s, now)
		if s.offering == noPkt && (!s.retx.empty() || !s.queue.empty()) &&
			!n.windowCapped(s) {
			liveSrcs = append(liveSrcs, si)
		} else {
			s.inOffer = false
		}
	}
	n.offerSrcs = liveSrcs
	// Arbitrate only the ports holding candidates, clearing the bits of
	// the ones that have gone empty as they are reached. Ports emptied
	// behind the scan (an inversion preemption at a later port can
	// withdraw a waiter from an earlier, already-visited one) keep their
	// bit until the next pass, which is harmless: set bits fire in
	// ascending port-ID order, so a stale bit costs one length check and
	// can never perturb arbitration order. No bit is ever set mid-scan —
	// register runs only from the offer pass and head arrivals, both
	// earlier in the cycle — so iterating a per-word snapshot is exact.
	for wi := range n.activeW {
		for w := n.activeW[wi]; w != 0; {
			b := w & -w
			w &^= b
			pi := wi<<6 + bits.TrailingZeros64(b)
			p := &n.ports[pi]
			// A port whose blocked verdict is live (outPort.epoch) is not
			// re-arbitrated. arbitrate's fault gate reports false, so a
			// round it cut short never stamps a verdict. refRound, when a
			// test installs it, runs every round in full instead: it stamps
			// none either, so blockedAt keeps the 0 that Reset set and the
			// epoch, which starts at 1 and only grows, never matches it.
			if len(p.waiters) > 0 {
				if epoch := p.epoch; p.blockedAt != epoch {
					if n.refRound != nil {
						n.refRound(p, now)
					} else if n.arbitrate(p, now) {
						p.blockedAt = epoch
					}
				} else {
					n.verdictSkips++
				}
			}
			if len(p.waiters) == 0 {
				n.activeW[wi] &^= b
			}
		}
	}
	if n.auditEvery > 0 && now >= n.auditAt {
		n.auditAt = now + n.auditEvery
		n.mustAudit(now)
	}
	n.clock.Tick()
}

// Run advances the simulation by the given number of cycles, fast-
// forwarding over provably idle windows unless Config.DisableIdleSkip is
// set. The clock lands on exactly the same final cycle either way.
func (n *Network) Run(cycles int) {
	n.run(n.clock.Now()+sim.Cycle(cycles), false)
}

// run steps the engine until the clock reaches end or, when asked, until
// the network has drained, which it reports. A cycle with work in it is
// stepped; from any other the clock jumps to the horizon and that cycle is
// stepped directly — by construction it has work. The jump is mechanical:
// a cycle is skippable only when no port holds an arbitration candidate
// (so neither allocation nor inversion preemption can fire) and nothing is
// filed for it, and the cycles up to the horizon execute no state change
// at all, so skipping them is bit-identical to ticking through them.
func (n *Network) run(end sim.Cycle, untilDrained bool) (drained bool) {
	for now := n.clock.Now(); now < end; now = n.clock.Now() {
		n.checkAbort(now)
		if !n.cfg.DisableIdleSkip && n.waiterCount == 0 && len(n.events.late) == 0 && !n.cal.busyAt(now) {
			if wake := n.horizon(now); wake >= end {
				n.clock.Advance(end - now)
				break
			} else if wake > now {
				n.clock.Advance(wake - now)
			}
		}
		n.Step()
		if untilDrained && n.idle() {
			return true
		}
	}
	return untilDrained && n.idle()
}

// neverCycle is effectively +infinity for next-wake computations.
const neverCycle = sim.Cycle(1) << 62

// horizon is the earliest cycle at which the engine could have work, given
// that no candidate is waiting: the minimum over everything scheduled to
// change that — the next cycle any wheel holds a record for (one scan of
// the shared map), the spilled records not yet on a wheel, the next PVC
// frame boundary (counter flush + quota refill), and each offerable
// source's injection VC freeing. It may be at or before now.
func (n *Network) horizon(now sim.Cycle) sim.Cycle {
	wake := min(n.cal.next(now), n.events.farAt(), n.arrivals.farAt())
	if n.frame != nil {
		wake = min(wake, n.frame.Next())
	}
	for _, si := range n.offerSrcs {
		wake = min(wake, n.nextOffer(&n.srcs[si]))
	}
	return wake
}

// WarmupAndMeasure runs warmup cycles with measurement paused, resets the
// collector, then runs the measurement window.
func (n *Network) WarmupAndMeasure(warmup, measure int) {
	n.coll.Pause()
	n.Run(warmup)
	n.measureStart()
	n.Run(measure)
}

// measureStart resets the collector at the warmup/measure boundary and
// emits the phase mark, so telemetry re-baselines its deltas at exactly
// the cycle the counters restart.
func (n *Network) measureStart() {
	now := n.clock.Now()
	n.coll.Reset(now)
	n.mark(MarkMeasureStart, -1, now)
}

// RunUntilDrained advances until every injector is exhausted and no packet
// remains in flight, or maxCycles elapse. It returns the cycle of the last
// delivery and whether the network fully drained. Idle windows are
// fast-forwarded like Run's unless Config.DisableIdleSkip is set.
func (n *Network) RunUntilDrained(maxCycles int) (completion sim.Cycle, drained bool) {
	if maxCycles > 0 && n.idle() {
		// The tick engine executes one no-op Step before its first idle
		// check; do the same rather than jump an empty horizon, so the
		// final clock — and a frame flush, if that step sits on a
		// boundary — stay bit-identical.
		n.checkAbort(n.clock.Now())
		n.Step()
		return n.coll.LastDelivery, true
	}
	drained = n.run(n.clock.Now()+sim.Cycle(maxCycles), true)
	return n.coll.LastDelivery, drained
}

// idle reports whether no work remains anywhere in the network, in O(1):
// nothing in flight, no arbitration candidate, no source holding an
// injectable backlog, and nothing on any wheel (sources leave the arrival
// wheel permanently once their next draw lands past StopAt) beyond the
// bookkeeping events — unfired fault edges, the watchdog timer, a probe —
// which act on no packet: a drained network with a fault scheduled next
// week is still drained. A source with outstanding window slots always
// has a pending ACK/NACK on some wheel, so that check covers
// retransmission obligations too.
func (n *Network) idle() bool {
	return n.inFlight == 0 && n.waiterCount == 0 && len(n.offerSrcs) == 0 &&
		n.events.Len() == n.sysEvents && n.arrivals.count == 0 && n.relw.count == 0 &&
		n.headw.count == 0 && n.delivw.count == 0 && n.ackw.count == 0
}
