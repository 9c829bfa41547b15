package network

import (
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// evKind enumerates the scheduled occurrences of the engine.
type evKind uint8

const (
	// evHead: a packet's head flit reaches its next buffer; it becomes
	// an arbitration candidate there.
	evHead evKind = iota
	// evDeliver: a packet's tail flit crosses the destination terminal
	// port; delivery completes.
	evDeliver
	// evRelease: a VC's tail flit has fully departed (plus credit
	// return time); the VC is reusable upstream.
	evRelease
	// evAck: the dedicated ACK network delivers a positive
	// acknowledgment to the source; the window slot frees.
	evAck
	// evNack: the ACK network reports a preemption; the source queues
	// the packet for retransmission.
	evNack
	// evInject: an externally scheduled packet generation comes due
	// (ScheduleInjection): the pending-injection record named by the
	// event's buf field is consumed and its packet generated. This is
	// how the closed-loop workload layer issues client requests and
	// server replies; making them events keeps idle-skip horizons exact.
	evInject
	// evFault: a fault window edge comes due (fault.go). The buf field
	// names the window; attempt 1 is the strike edge, 0 the heal edge.
	// Scheduled at Reset, so idle-skip horizons cover fault edges exactly.
	evFault
	// evRetry: a source-level delivery timeout fires (fault.go); the
	// attempt field carries the injection sequence the timer was armed
	// for, so reinjections supersede stale timers.
	evRetry
	// evWatchdog: the no-forward-progress watchdog checks in
	// (watchdog.go); it reschedules itself against the last progress
	// cycle and panics with a diagnostic report when the window lapses.
	evWatchdog
	// evProbe: a telemetry sampling tick comes due (probe.go). The
	// probe reschedules itself every SetProbe interval; riding the
	// event wheel keeps idle-skip horizons exact, so an instrumented
	// run is bit-identical to an uninstrumented one with or without
	// fast-forwarding. The handler only reads engine state.
	evProbe
)

// event is one scheduled occurrence. Packet-borne events carry the attempt
// (retransmission count) and arena-slot generation they were scheduled
// for; a preemption bumps the packet's attempt and a recycle bumps the
// slot's generation, turning in-flight stale events into no-ops. The
// struct is 24 bytes and pointer-free — packets and buffers are named by
// handle/ID — so scheduling and firing copy three words with no write
// barriers, and the garbage collector never scans a bucket.
type event struct {
	// p is the target packet's arena handle (noPkt for buffer events).
	p    pktH
	pgen uint32
	// buf is the release target's buffer ID.
	buf     int32
	gen     uint32
	attempt int32
	vc      int16
	kind    evKind
}

// eventQueue is the general calendar: a long wheel whose events fire, within
// a cycle, in the order they were scheduled, which is filing order (see
// schedule for why an event back from the overflow heap keeps it). It
// carries what the dense per-kind wheels below do not:
// the timers that sit hundreds of cycles out (retry, scheduled injection,
// probe, fault edge, watchdog), NACKs, and the rare dense record whose
// distance leaves its own wheel.
//
// late is what makes it exact at distance zero: an event scheduled at or
// before the current cycle (a NACK with zero hop distance and zero
// configured delay, a reply a delivery hook schedules for the delivery's
// own cycle, or anything scheduled from the arbitration phase after
// processEvents already ran) fires on the next processEvents pass, before
// anything of a later cycle, in schedule order.
type eventQueue struct {
	wheel[event]
	late []event
	// lateFires counts late-list firings, for tests.
	lateFires uint64
}

// Len returns the number of pending events.
func (q *eventQueue) Len() int { return q.count + len(q.late) }

// schedule enqueues an event at the given cycle. Callers targeting a
// packet stamp ev.pgen themselves (they already hold the slot pointer) so
// the event dies with the packet; now is the current cycle (every caller
// holds that too, which saves a clock load on the engine's hottest write
// path).
//
// A spilled event is older than anything filed directly for its cycle,
// so it must reach its bucket first. Step's processEvents drains it at
// the first cycle it is inside the horizon, before any handler files; an
// event filed from outside Step (ScheduleInjection, SetProbe between two
// Runs) can be filed after the clock reached that cycle but before the
// next Step drained it, so the drain runs here too.
func (n *Network) schedule(ev *event, at, now sim.Cycle) {
	q := &n.events
	switch d := at - now; {
	case d <= 0:
		q.late = append(q.late, *ev)
	case d < q.size():
		if len(q.far.items) > 0 {
			q.drain(now)
		}
		q.file(*ev, at)
	default:
		q.spill(*ev, at)
	}
}

// processEvents fires every event due at or before now: carried-over late
// events first (their cycle already passed), then the current cycle's
// bucket in schedule order, then anything a fired handler scheduled for
// this very cycle (it lands in late: the bucket cannot grow while firing).
func (n *Network) processEvents(now sim.Cycle) {
	q := &n.events
	if len(q.far.items) > 0 {
		q.drain(now)
	}
	n.fireLate(now)
	if b := q.due(now); len(b) > 0 {
		for i := range b {
			n.dispatch(b[i], now)
		}
		q.done(now)
		n.fireLate(now)
	}
}

func (n *Network) fireLate(now sim.Cycle) {
	q := &n.events
	for len(q.late) > 0 {
		ev := q.late[0]
		q.late = q.late[:copy(q.late, q.late[1:])]
		q.lateFires++
		n.dispatch(ev, now)
	}
}

// dispatch fires one event, unless the packet it targets has been
// recycled since it was scheduled. The target's arena slot is resolved
// once here and handed to the handler.
func (n *Network) dispatch(ev event, now sim.Cycle) {
	switch ev.kind {
	case evRelease:
		n.bufs[ev.buf].release(int32(ev.vc), ev.gen)
		return
	case evInject:
		rec := n.injPool[ev.buf]
		n.injFree = append(n.injFree, ev.buf)
		n.generateScheduled(rec, now)
		return
	case evFault:
		n.onFaultEdge(ev.buf, ev.attempt == 1, now)
		return
	case evWatchdog:
		n.onWatchdog(now)
		return
	case evProbe:
		n.onProbe(now)
		return
	}
	p := &n.arena[ev.p]
	if p.gen != ev.pgen {
		return // the packet was recycled; its slot moved on
	}
	switch ev.kind {
	case evHead:
		n.onHeadArrival(ev.p, p, int(ev.attempt), now)
	case evDeliver:
		n.onDeliver(ev.p, p, int(ev.attempt), now)
	case evAck:
		n.onAck(&n.srcs[p.srcIdx])
		n.recycle(ev.p)
	case evNack:
		n.onNack(&n.srcs[p.srcIdx], ev.p)
	case evRetry:
		n.onRetryTimeout(ev.p, p, ev.attempt, now)
	}
}

// The four per-packet occurrences that dominate the engine's traffic —
// a head arrival per hop, a VC release per hop and per delivery, a
// delivery and an ACK per packet — each get a dense wheel of 12-byte
// records instead of riding the event queue. A record whose distance
// leaves the dense horizon (an oversized configured AckDelay, say), or
// that is due at the current cycle after its phase already ran, becomes an
// ordinary event, which is where the wheels' assumptions end.
//
// Ordering is preserved where it is observable:
//
//   - Records of the same kind fire in schedule order, so delivery
//     fingerprints — a hash over deliveries in firing order — are
//     untouched.
//   - Between a dense record and an event due the same cycle, the event
//     fires first (Step runs processEvents ahead of the dense phases).
//     Events are either timers scheduled long ago or dense records that
//     left the horizon, scheduled earlier than any same-cycle dense record
//     by at least that horizon: "events first" is the schedule order.
//   - Between dense kinds due the same cycle the engine fixes the phase
//     order releases -> delivers -> ACKs -> heads. A release touches only
//     its own VC's state (owner, free bit, occupancy, generation), which
//     no handler reads — VC state is consulted by the arbitration phase,
//     after every event phase — and two live releases never target the
//     same (buffer, VC, generation), so releases commute with everything.
//     The other handlers touch disjoint state (a deliver writes its own
//     packet, statistics and the source window path; an ACK frees a window
//     slot and recycles an arena slot; a head appends its own packet to an
//     output port's candidate list), so the phase order is unobservable
//     except through the arena free-list order, which it fixes.

// relRec is one pending virtual-channel release: the (buffer, VC,
// generation) triple an evRelease carries.
type relRec struct {
	buf int32
	gen uint32
	vc  int16
}

// pktRec is one pending head arrival, delivery or ACK: the arena handle,
// the slot generation it was scheduled against (a recycle turns the
// record into a no-op, like dispatch's pgen guard) and the
// retransmission attempt.
type pktRec struct {
	p       pktH
	pgen    uint32
	attempt int32
}

// scheduleHead, scheduleDeliver, scheduleAck and scheduleRelease file a
// record on its dense wheel, or as an event of the matching kind outside
// that wheel's horizon.
func (n *Network) scheduleHead(h pktH, pgen uint32, attempt int32, at, now sim.Cycle) {
	if d := at - now; d > 0 && d < 1<<denseBits {
		n.headw.add(pktRec{p: h, pgen: pgen, attempt: attempt}, at)
		return
	}
	n.schedule(&event{kind: evHead, p: h, pgen: pgen, attempt: attempt}, at, now)
}

func (n *Network) scheduleDeliver(h pktH, pgen uint32, attempt int32, at, now sim.Cycle) {
	if d := at - now; d > 0 && d < 1<<denseBits {
		n.delivw.add(pktRec{p: h, pgen: pgen, attempt: attempt}, at)
		return
	}
	n.schedule(&event{kind: evDeliver, p: h, pgen: pgen, attempt: attempt}, at, now)
}

// A zero-distance, zero-AckDelay ACK fires inline — it is due this very
// cycle, and the deliver phase it is scheduled from precedes the ACK phase.
func (n *Network) scheduleAck(h pktH, pgen uint32, at, now sim.Cycle) {
	switch d := at - now; {
	case d <= 0:
		n.onAck(&n.srcs[n.arena[h].srcIdx])
		n.recycle(h)
	case d < 1<<denseBits:
		n.ackw.add(pktRec{p: h, pgen: pgen}, at)
	default:
		n.schedule(&event{kind: evAck, p: h, pgen: pgen}, at, now)
	}
}

func (n *Network) scheduleRelease(buf int32, vc int16, gen uint32, at, now sim.Cycle) {
	if d := at - now; d > 0 && d < 1<<denseBits {
		n.relw.add(relRec{buf: buf, gen: gen, vc: vc}, at)
		return
	}
	n.schedule(&event{kind: evRelease, buf: buf, vc: vc, gen: gen}, at, now)
}

// The four fire functions run a dense phase each. No handler files a
// record on a dense wheel for the cycle being fired (a deliver schedules
// future ACKs or fires a zero-delay one inline; releases, ACKs and heads
// schedule nothing), so the bucket cannot grow while it fires.

func (n *Network) fireReleases(now sim.Cycle) {
	b := n.relw.due(now)
	if len(b) == 0 {
		return
	}
	for i := range b {
		n.bufs[b[i].buf].release(int32(b[i].vc), b[i].gen)
	}
	n.relw.done(now)
}

func (n *Network) fireDelivers(now sim.Cycle) {
	b := n.delivw.due(now)
	if len(b) == 0 {
		return
	}
	for i := range b {
		if p := &n.arena[b[i].p]; p.gen == b[i].pgen {
			n.onDeliver(b[i].p, p, int(b[i].attempt), now)
		}
	}
	n.delivw.done(now)
}

func (n *Network) fireAcks(now sim.Cycle) {
	b := n.ackw.due(now)
	if len(b) == 0 {
		return
	}
	for i := range b {
		if p := &n.arena[b[i].p]; p.gen == b[i].pgen {
			n.onAck(&n.srcs[p.srcIdx])
			n.recycle(b[i].p)
		}
	}
	n.ackw.done(now)
}

func (n *Network) fireHeads(now sim.Cycle) {
	b := n.headw.due(now)
	if len(b) == 0 {
		return
	}
	for i := range b {
		if p := &n.arena[b[i].p]; p.gen == b[i].pgen {
			n.onHeadArrival(b[i].p, p, int(b[i].attempt), now)
		}
	}
	n.headw.done(now)
}

// onHeadArrival moves a packet into the buffer its head flit just reached
// and registers it as an arbitration candidate for its next leg.
func (n *Network) onHeadArrival(h pktH, p *pkt, attempt int, now sim.Cycle) {
	if p.Retransmits != attempt || p.state != stMoving {
		return // preempted while in flight
	}
	leg := &p.legs[p.Hop()]
	p.curBuf, p.curVC = p.nxtBuf, p.nxtVC
	p.nxtBuf, p.nxtVC = noBuf, -1
	p.creditDelay = int32(leg.WireDelay)
	p.weightedHops += int32(leg.HopWeight)
	n.coll.HopTraversed(leg.HopWeight)
	p.AdvanceHop()
	p.state = stWaiting
	p.enq = now
	n.register(&n.ports[p.legs[p.Hop()].Out], h)
}

// onDeliver completes a delivery: statistics, the ejection VC's drain, and
// the ACK that frees the source's window slot.
func (n *Network) onDeliver(h pktH, p *pkt, attempt int, now sim.Cycle) {
	if p.Retransmits != attempt || p.state != stMoving {
		return
	}
	p.state = stDelivered
	n.inFlight--
	n.lastProgress = now
	n.coll.Delivered(p.Flow, p.Size, int64(now-p.Created), now)
	if p.timeoutRetries > 0 {
		n.coll.Recovered(int64(now - p.Created))
	}
	if n.deliveryHook != nil {
		// Value copy: the hook may trigger recycling-adjacent work (it
		// runs before the ACK that frees this slot) and must never hold
		// the arena slot itself.
		n.deliveryHook(Delivery{
			ID: p.ID, Parent: p.Parent, Flow: p.Flow, Src: p.Src, Dst: p.Dst,
			Class: p.Class, Kind: p.Kind, SrcIdx: p.srcIdx,
			Created: p.Created, Injected: p.Injected, At: now,
		})
	}
	// The ejection VC's release was scheduled at grant time (the
	// terminal's credit loop runs ahead of the tail's arrival), at
	// grant+Size+1 — and with every ejection RouterDelay >= 2, this
	// deliver fires no earlier than that; when they coincide the
	// release still wins, because Step runs the release phase before
	// the deliver phase. So the VC's ownership is always cleared
	// before the earliest possible recycle of this slot (the ACK,
	// scheduled just below, fires in a phase after delivers), and the
	// preemption logic can never price a drained slot off a reused
	// slot. Do NOT clear the ownership here instead: on MECS the
	// release fires a cycle before this deliver and the VC may already
	// belong to the next packet.
	p.nxtBuf, p.nxtVC = noBuf, -1
	if n.mode == qos.PVC {
		dist := sim.Cycle(topology.Distance(p.Dst, p.Src))
		n.scheduleAck(h, p.gen, now+dist+n.cfg.QoS.AckDelay, now)
	} else {
		n.onAck(&n.srcs[p.srcIdx])
		n.recycle(h)
	}
}
