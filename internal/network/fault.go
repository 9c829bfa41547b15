package network

import (
	"fmt"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// This file is the fault-injection and end-to-end recovery subsystem.
//
// Faults are first-class events: every window edge (the cycle a fault
// strikes and, for healing windows, the cycle it lifts) is scheduled on
// the engine's event wheel at Reset, so idle fast-forward horizons stay
// exact and a faulted run is bit-identical across worker counts and skip
// settings. Between edges the fault state is a pair of per-port bitmaps
// (down, permanently dead) plus a per-node stall bitmap that the
// arbitration hot path consults with a single gated branch — a fault-free
// configuration costs exactly one predictable-false comparison per
// arbitrated port and nothing else.
//
// Recovery is source-level: when FaultConfig.RetryTimeout is set, every
// injection arms a delivery-timeout event with RTO doubling (the timeout
// for retransmission k is RetryTimeout << k), and a timer that finds its
// packet undelivered declares the attempt lost, reclaims any in-network
// resources it still holds, and requeues the packet on the source's
// retransmission queue — the same queue NACKed preemption victims use, so
// PVC window accounting and priority bookkeeping stay honest. After
// MaxRetries timeout retransmissions the packet is abandoned and counted
// as a drop. With RetryTimeout unset, a fault-killed attempt becomes a
// drop immediately, so runs still drain.
//
// Routing recomputes deterministically around permanent faults: the
// source's offer path probes replica channels in the usual round-robin
// order and takes the first whose legs avoid every dead port; a
// destination no replica can reach is an unroutable drop. The probe is a
// pure function of the replica counter and the dead set, so it is
// deterministic and replayable.

// FaultConfig schedules hardware fault injection and configures
// end-to-end recovery for one network. The zero value disables both at
// zero cost: fault-free runs are fingerprint-identical to an engine
// without the subsystem.
type FaultConfig struct {
	// Windows are the scheduled faults, applied in order at their edges.
	Windows []noc.FaultWindow
	// RetryTimeout, when positive, arms a delivery timeout on every
	// injection: an unacknowledged packet is declared lost after
	// RetryTimeout << k cycles (k = its timeout retransmissions so far,
	// capped) and retransmitted from the source. Zero disables recovery;
	// fault-killed attempts then become final drops.
	RetryTimeout sim.Cycle
	// MaxRetries bounds timeout retransmissions per packet; once
	// exhausted the packet is abandoned and counted as a drop. Only
	// meaningful with RetryTimeout set.
	MaxRetries int
}

// retryBackoffCap bounds the RTO-doubling shift so the backoff cannot
// overflow a cycle count.
const retryBackoffCap = 16

// validate checks the fault configuration against the topology it will
// run on. Scheduling conflicts (overlapping windows on one port) are a
// scenario-level concern; the engine recomputes the full fault state at
// every edge, so overlap is well-defined here.
func (c FaultConfig) validate(kind topology.Kind, nodes int) error {
	if c.RetryTimeout < 0 {
		return fmt.Errorf("network: negative retry timeout %d", c.RetryTimeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("network: negative max retries %d", c.MaxRetries)
	}
	ports := topology.NumPorts(kind, nodes)
	for i, w := range c.Windows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("network: fault window %d: %w", i, err)
		}
		switch w.Kind {
		case noc.FaultRouterStall:
			if w.Node >= nodes {
				return fmt.Errorf("network: fault window %d stalls node %d outside column of %d", i, w.Node, nodes)
			}
		default:
			if w.Port >= ports {
				return fmt.Errorf("network: fault window %d names port %d, topology %v has %d", i, w.Port, kind, ports)
			}
		}
	}
	return nil
}

// reinitFaults installs cfg's fault schedule and recovery knobs on a
// freshly Reset network: state bitmaps sized and cleared, every window
// edge scheduled as an evFault on the event wheel (attempt 1 = strike,
// 0 = heal), and the watchdog timer armed. Runs after Reset rebuilds the
// event wheel and sources, so edge events are the run's first filings and
// fire ahead of any same-cycle packet event.
func (n *Network) reinitFaults(cfg Config) {
	n.fltOn = len(cfg.Faults.Windows) > 0
	n.fltHasDead = false
	n.retryTimeout = cfg.Faults.RetryTimeout
	n.maxRetries = int32(cfg.Faults.MaxRetries)
	n.sysEvents = 0
	n.wdWindow = cfg.WatchdogCycles
	n.lastProgress = 0
	n.auditEvery = cfg.AuditEvery
	if n.auditEvery == 0 && envAuditEvery > 0 {
		n.auditEvery = envAuditEvery
	}
	n.auditAt = 0

	words := (len(n.ports) + 63) / 64
	if cap(n.fltDown) < words {
		n.fltDown = make([]uint64, words)
		n.fltDead = make([]uint64, words)
	}
	n.fltDown = n.fltDown[:words]
	n.fltDead = n.fltDead[:words]
	for i := range n.fltDown {
		n.fltDown[i], n.fltDead[i] = 0, 0
	}
	nwords := (n.cfg.Nodes + 63) / 64
	if cap(n.fltStall) < nwords {
		n.fltStall = make([]uint64, nwords)
	}
	n.fltStall = n.fltStall[:nwords]
	for i := range n.fltStall {
		n.fltStall[i] = 0
	}

	for i, w := range cfg.Faults.Windows {
		n.sysEvents++
		n.schedule(&event{kind: evFault, buf: int32(i), attempt: 1}, w.From, 0)
		if w.Until > 0 {
			n.sysEvents++
			n.schedule(&event{kind: evFault, buf: int32(i), attempt: 0}, w.Until, 0)
		}
	}
	if n.wdWindow > 0 {
		n.sysEvents++
		n.schedule(&event{kind: evWatchdog}, n.wdWindow, 0)
	}
}

func setBit(bm []uint64, i int)       { bm[i>>6] |= 1 << uint(i&63) }
func testBit(bm []uint64, i int) bool { return bm[i>>6]&(1<<uint(i&63)) != 0 }

// portBlocked reports whether the port can grant nothing this cycle: its
// link is down, or its router is stalled. Only consulted when fault
// windows are configured.
func (n *Network) portBlocked(port *outPort) bool {
	return testBit(n.fltDown, int(port.id)) || testBit(n.fltStall, port.spec.Node)
}

// onFaultEdge fires one scheduled window edge: the down/dead/stall state
// is recomputed wholesale from the schedule (robust under any overlap),
// and a striking link fault kills the traffic it catches.
func (n *Network) onFaultEdge(idx int32, strike bool, now sim.Cycle) {
	n.sysEvents--
	if strike {
		n.mark(MarkFaultStrike, idx, now)
	} else {
		n.mark(MarkFaultHeal, idx, now)
	}
	n.recomputeFaultState(now)
	if !strike {
		return
	}
	w := n.cfg.Faults.Windows[idx]
	if w.Kind == noc.FaultRouterStall {
		return // nothing is lost: traffic queues up behind the stall
	}
	n.applyLinkFault(w.Port, w.Kind == noc.FaultLinkPermanent, now)
}

// recomputeFaultState rebuilds the fault bitmaps from the window schedule
// at cycle now. Edges are rare, so the wholesale recompute costs nothing
// measurable and makes overlapping or abutting windows trivially correct.
func (n *Network) recomputeFaultState(now sim.Cycle) {
	for i := range n.fltDown {
		n.fltDown[i], n.fltDead[i] = 0, 0
	}
	for i := range n.fltStall {
		n.fltStall[i] = 0
	}
	n.fltHasDead = false
	for _, w := range n.cfg.Faults.Windows {
		if w.From > now || (w.Until > 0 && now >= w.Until) {
			continue
		}
		switch w.Kind {
		case noc.FaultRouterStall:
			setBit(n.fltStall, w.Node)
		case noc.FaultLinkPermanent:
			setBit(n.fltDown, w.Port)
			setBit(n.fltDead, w.Port)
			n.fltHasDead = true
		case noc.FaultLinkTransient:
			setBit(n.fltDown, w.Port)
		}
	}
}

// legsCrossDead reports whether any leg from index from onward uses a
// permanently dead output port.
func (n *Network) legsCrossDead(legs []topology.Leg, from int) bool {
	for i := from; i < len(legs); i++ {
		if testBit(n.fltDead, int(legs[i].Out)) {
			return true
		}
	}
	return false
}

// applyLinkFault kills the traffic a striking link fault catches: packets
// whose flits are in flight on the faulted port are dropped (transient
// and permanent), and for a permanent fault, anything whose remaining
// route crosses a now-dead port can never arrive and is dropped too,
// while offered-but-ungranted source packets are withdrawn so their next
// offer recomputes the route.
func (n *Network) applyLinkFault(port int, permanent bool, now sim.Cycle) {
	for h := pktH(1); int(h) < len(n.arena); h++ {
		p := &n.arena[h]
		switch p.state {
		case stMoving:
			// legs[Hop()] is the in-transfer leg (hop advances at head
			// arrival), so its Out is the link the flits occupy.
			if int(p.legs[p.Hop()].Out) == port {
				n.faultKill(h, now)
			} else if permanent && n.legsCrossDead(p.legs, p.Hop()+1) {
				n.faultKill(h, now)
			}
		case stWaiting:
			// Buffered traffic survives a transient outage (it waits out
			// the window), but a permanently severed route is fatal.
			if permanent && n.legsCrossDead(p.legs, p.Hop()) {
				n.faultKill(h, now)
			}
		}
	}
	if !permanent {
		return
	}
	for i := range n.srcs {
		s := &n.srcs[i]
		if s.offering == noPkt {
			continue
		}
		p := &n.arena[s.offering]
		if n.legsCrossDead(p.legs, 0) {
			n.withdraw(&n.ports[p.legs[0].Out], s.offering)
			s.offering = noPkt
			n.markOfferable(s)
		}
	}
}

// faultKill discards one in-network transmission attempt: resources are
// released exactly as for a preemption, but no NACK travels — recovery
// belongs to the delivery timeout armed at injection, or, with recovery
// disabled, the packet is abandoned on the spot.
func (n *Network) faultKill(h pktH, now sim.Cycle) {
	p := &n.arena[h]
	n.releaseAttempt(h, p)
	p.state = stDead
	p.weightedHops = 0
	n.coll.FaultDropped()
	p.ResetForRetransmit() // in-flight events of this attempt go stale
	if n.retryTimeout == 0 {
		n.abandon(h)
	}
}

// releaseAttempt withdraws a packet's arbitration bid and frees the VCs
// it still owns; generation bumps turn any scheduled release into a
// no-op. A claim whose VC is no longer owned by this packet (its
// credit-loop release already fired, and the VC may belong to a
// successor) is only disclaimed, never released. Shared by preemption,
// fault kills and timeout losses.
func (n *Network) releaseAttempt(h pktH, p *pkt) {
	if p.state == stWaiting {
		n.withdraw(&n.ports[p.legs[p.Hop()].Out], h)
	}
	if p.curBuf != noBuf {
		cb := &n.bufs[p.curBuf]
		if cb.owner[p.curVC] == h {
			cb.release(p.curVC, cb.gen(p.curVC))
		}
		p.curBuf, p.curVC = noBuf, -1
	}
	if p.nxtBuf != noBuf {
		nb := &n.bufs[p.nxtBuf]
		if nb.owner[p.nxtVC] == h {
			nb.release(p.nxtVC, nb.gen(p.nxtVC))
		}
		p.nxtBuf, p.nxtVC = noBuf, -1
	}
}

// abandon drops an injected packet for good: its window slot and
// in-flight count are returned, the drop is charged to its flow, and the
// slot recycles. The freed window may unblock the source.
func (n *Network) abandon(h pktH) {
	p := &n.arena[h]
	s := &n.srcs[p.srcIdx]
	s.window--
	if s.window < 0 {
		panic("network: abandoning packet without outstanding window slot")
	}
	n.inFlight--
	n.coll.Dropped(p.Flow)
	p.state = stDead
	n.recycle(h)
	n.markOfferable(s)
}

// armRetryTimer schedules the delivery timeout for a fresh injection with
// deterministic exponential backoff: attempt k times out after
// RetryTimeout << k cycles. The event carries the packet's injection
// sequence number, so a NACK-driven reinjection (which re-arms its own
// timer) supersedes it.
func (n *Network) armRetryTimer(h pktH, p *pkt, now sim.Cycle) {
	shift := p.timeoutRetries
	if shift > retryBackoffCap {
		shift = retryBackoffCap
	}
	d := n.retryTimeout << uint(shift)
	n.schedule(&event{kind: evRetry, p: h, pgen: p.gen, attempt: p.retrySeq}, now+d, now)
}

// onRetryTimeout fires a delivery timeout. Stale timers — the packet was
// reinjected since (sequence mismatch), delivered (ACK in flight), is
// already queued at the source, or has a NACK on the wire that will
// requeue it — are no-ops. A live timer declares the attempt lost:
// either requeue for retransmission with the retry charged to the flow,
// or, with the budget exhausted, abandon the packet.
func (n *Network) onRetryTimeout(h pktH, p *pkt, attempt int32, now sim.Cycle) {
	if attempt != p.retrySeq || p.state == stDelivered || p.state == stAtSource || p.nackPending {
		return
	}
	if p.timeoutRetries >= n.maxRetries {
		if p.state != stDead {
			n.releaseAttempt(h, p)
			p.weightedHops = 0
		}
		p.state = stDead
		n.abandon(h)
		return
	}
	p.timeoutRetries++
	n.coll.TimeoutRetry(p.Flow)
	if p.state != stDead {
		// Still somewhere in the network: treat it as lost (the
		// end-to-end model's duplicate suppression) and reclaim its
		// resources.
		n.releaseAttempt(h, p)
		p.weightedHops = 0
	}
	p.ResetForRetransmit()
	p.state = stAtSource
	s := &n.srcs[p.srcIdx]
	s.retx.push(h)
	n.markOfferable(s)
}

// reroute probes the remaining replica channels for a path that avoids
// every dead port, continuing the source's round-robin where offer left
// it. Returns false when no replica reaches the destination — the caller
// drops the packet as unroutable. Pure in the replica counter and dead
// set, hence deterministic.
func (n *Network) reroute(s *source, p *pkt) bool {
	for k := 1; k < n.graph.NumReplicas(); k++ {
		legs := n.graph.Path(p.Src, p.Dst, s.replica)
		s.replica++
		if !n.legsCrossDead(legs, 0) {
			p.legs = legs
			return true
		}
	}
	return false
}
