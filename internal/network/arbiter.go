package network

import (
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// outPort is one contended output resource: a column channel, a subnet
// port, or the terminal (ejection) port. Exactly one packet wins each
// allocation and streams its flits across at one per cycle. Ports live by
// value in the network's flat port array.
type outPort struct {
	id   topology.PortID
	spec topology.PortSpec
	// table is this output's PVC flow state (nil under NoQoS);
	// priorities are cached per flow and bandwidth recorded here on
	// every non-intermediate traversal.
	table *qos.FlowTable
	// nextArb is the earliest cycle a new packet may be granted,
	// maintaining one flit per cycle across the channel with the next
	// allocation pipelined behind the current transfer.
	nextArb sim.Cycle
	// waiters are the registered candidates: head packets of upstream
	// VCs routed through this port, plus offered source packets.
	waiters []pktH
	rr      qos.RoundRobin
	// Verdict memo. epoch moves on everything an arbitration verdict here
	// can depend on: every waiter-set edit, every allocVC and release in a
	// buffer this port feeds (each inBuf points at its one feeder's
	// counter, topology.Graph.Feeder) and every PVC frame flush. A
	// no-victim inversion scan records scanAt, an allocation round that
	// neither granted nor preempted records blockedAt (in Step), and either
	// is skipped while its stamp equals epoch. The skipped round is
	// bit-identical to the executed one: a registered packet's fields are
	// frozen; this port's priorities and nextArb change only on a grant
	// here (which unregisters the winner) or a flush; with the fed VC
	// bitmaps unchanged allocVC fails identically; and a preemption victim
	// can only appear through a new allocation or a priority change (a
	// buffered packet's own transitions only disqualify it). A round that
	// preempts stamps the epoch read at its start, already left behind by
	// the victim's release — the one-victim-per-cycle cadence exactly.
	epoch     uint64
	scanAt    uint64
	blockedAt uint64
}

// flush clears the flow counters at a PVC frame boundary: priorities move.
func (p *outPort) flush() {
	p.table.Flush()
	p.epoch++
}

// bid is one arbitration candidate with its dynamic priority and
// tie-break keys, resolved once per allocation round. Carrying the age
// and ID here keeps the serve loop's best-candidate scan inside the bid
// array — no arena lookups per comparison.
type bid struct {
	prio    noc.Priority
	created sim.Cycle
	id      uint64
	h       pktH // noPkt once the candidate has been served
}

// register adds a packet to a port's candidate list, activating the port
// if this is its first candidate. Active ports live in a bitmap over port
// IDs, so per-cycle arbitration (which fires set bits in ascending order)
// visits ports in the same canonical order as the historical all-ports
// scan, independent of activation history — which is also what makes idle
// skipping mechanical (stale bits can never reorder arbitration).
func (n *Network) register(p *outPort, h pktH) {
	w := &n.arena[h]
	if w.curBuf == noBuf {
		w.state = stAtSource
	} else {
		w.state = stWaiting
	}
	p.waiters = append(p.waiters, h)
	p.epoch++
	n.waiterCount++
	if n.waiterCount == 1 {
		// The watchdog's progress clock restarts when the network goes
		// from no candidates to some: an idle stretch must not count
		// against the first packet to arrive after it.
		n.lastProgress = n.clock.Now()
	}
	n.activeW[int(p.id)>>6] |= 1 << (uint(p.id) & 63)
}

// unregister removes a packet from a port's candidate list. The port's
// active bit stays set until the next arbitration pass clears it (lazy
// deactivation keeps removal O(1) here).
func (n *Network) unregister(p *outPort, h pktH) {
	if len(p.waiters) == 1 && p.waiters[0] == h {
		// Sole candidate (the low-load common case): no splice scan.
		p.waiters = p.waiters[:0]
		p.epoch++
		n.waiterCount--
		return
	}
	for i, c := range p.waiters {
		if c == h {
			p.waiters = append(p.waiters[:i], p.waiters[i+1:]...)
			p.epoch++
			n.waiterCount--
			return
		}
	}
}

// arbitrate runs one virtual-channel allocation for the port: the winning
// candidate is granted a VC at its downstream buffer and begins its
// transfer. Under PVC, a candidate that finds the buffer full may preempt
// a strictly-lower-priority, non-compliant packet (Section 3.1). It
// reports whether a full allocation round ran and granted nothing.
func (n *Network) arbitrate(port *outPort, now sim.Cycle) (noGrant bool) {
	if len(port.waiters) == 0 {
		return false
	}
	if n.fltOn && n.portBlocked(port) {
		// The link is down or the router stalled: no grant, and no
		// preemption either — the port's allocation logic is what is
		// modeled as failed. Candidates simply wait.
		return false
	}
	if now < port.nextArb {
		// Mid-transfer: the channel is busy. The arrival of a
		// higher-priority packet does not interrupt the on-going
		// transfer, but PVC's preemption logic still resolves the
		// priority inversion it observes at the output: a buffered
		// packet that trails the best waiting packet by more than the
		// hysteresis margin is discarded and must be retransmitted.
		// This is where MECS's destination-side discards come from —
		// the victim has already crossed its whole express channel,
		// so its full hop distance is replayed (Figure 5) — while the
		// contended output port itself never carries the victim.
		if n.mode == qos.PVC {
			n.tryInversionPreempt(port, now)
		}
		return false
	}
	if n.mode == qos.NoQoS {
		// No preemption here: blocked means every candidate's buffer is full.
		return n.arbitrateRoundRobin(port, now)
	}
	if n.mode == qos.PerFlowQueue && (n.flowQs[port.id].seen > 0 || len(port.waiters) > flowQueueMin) {
		return n.arbitrateFlowQueues(port, now) // compares flow heads only
	}
	// Candidates bid with their dynamic priority: the port's flat cached-
	// priority array, or at a DPS intermediate hop the priority carried in
	// the header. The bid list is a network-owned scratch buffer, reused
	// across rounds (one round per port per cycle, one engine thread).
	prios := port.table.Priorities()
	if len(port.waiters) == 1 {
		// Sole candidate: the bid build and best-of scan are pure
		// overhead — serve it directly through the same alloc/preempt/
		// grant sequence the general loop would run.
		h := port.waiters[0]
		w := &n.arena[h]
		leg := &w.legs[w.Hop()]
		prio := w.Priority
		if !leg.Intermediate {
			prio = prios[w.Flow]
		} else if w.frameStamp != n.frameCount {
			prio = 0
		}
		buf := &n.bufs[leg.In]
		vcIdx := buf.allocVC(h, w.Reserved)
		if vcIdx < 0 && n.mode == qos.PVC && !leg.Intermediate {
			threshold := prio + n.margin*port.table.PriorityStep(w.Flow)
			if victim, vp := n.worstVictim(buf, prios); vp > threshold {
				n.preempt(buf, victim, now)
				vcIdx = buf.allocVC(h, w.Reserved)
			}
		}
		if vcIdx < 0 {
			return true
		}
		n.grant(port, h, leg, buf, vcIdx, prio, now)
		return false
	}
	bids := n.bidScratch[:0]
	for _, h := range port.waiters {
		w := &n.arena[h]
		leg := &w.legs[w.Hop()]
		prio := w.Priority
		if !leg.Intermediate {
			prio = prios[w.Flow]
		} else if w.frameStamp != n.frameCount {
			// Carried priorities are frame-relative: a stamp from
			// a flushed frame reads as zero consumption, like the
			// counters it came from.
			prio = 0
		}
		bids = append(bids, bid{prio: prio, created: w.Created, id: w.ID, h: h})
	}
	n.bidScratch = bids[:0]
	// Serve in priority order until one candidate can be granted.
	// Candidates that cannot obtain (or steal) a VC are skipped, as in
	// hardware VA where only credit-holding requesters bid. Ties within
	// a priority class are broken by packet age (oldest creation time
	// first): age-based arbitration keeps merge points globally fair —
	// a starved flow's queue head is the oldest packet in the system,
	// so it wins every tie until it catches up, instead of splitting
	// tie bandwidth by how many candidates each input happens to
	// present.
	tried := 0
	failedBufs := n.failedScratch[:0]
	for tried < len(bids) {
		best := -1
		for i := range bids {
			if bids[i].h == noPkt {
				continue
			}
			if best < 0 || betterBid(&bids[i], &bids[best]) {
				best = i
			}
		}
		if best < 0 {
			return false
		}
		h, prio := bids[best].h, bids[best].prio
		bids[best].h = noPkt
		tried++

		w := &n.arena[h]
		leg := &w.legs[w.Hop()]
		buf := &n.bufs[leg.In]
		// If an equally-eligible earlier candidate already failed on
		// this buffer, this one fails too (unless it can use the
		// reserved VC or preempt with a better priority — both
		// rechecked below only when the buffer state could differ).
		skip := false
		for _, fb := range failedBufs {
			if fb == int32(leg.In) {
				skip = true
				break
			}
		}
		if skip && !w.Reserved {
			continue
		}
		vcIdx := buf.allocVC(h, w.Reserved)
		if vcIdx < 0 {
			if tried == 1 {
				n.victims = n.victims[:0] // the round's first refusal opens its victim memo
			}
			// Preemption resolves priority inversion in buffers, but only
			// where the preemption logic physically exists — at output
			// ports with flow state (Figure 2), which excludes DPS
			// intermediate muxes. At the destination router it discards
			// ejection-VC holders whose whole path is then wasted: exactly
			// why MECS's wasted-hop fraction equals its packet fraction in
			// Figure 5 (every express packet loses its full flight).
			if n.mode == qos.PVC && !leg.Intermediate {
				// Victim and requester are priced off the same flow
				// table, with hysteresis: equally-served flows jitter
				// within a few classes and must not preempt each other.
				threshold := prio + n.margin*port.table.PriorityStep(w.Flow)
				if victim, vp := n.roundVictim(buf, prios); vp > threshold {
					n.preempt(buf, victim, now)
					if vcIdx = buf.allocVC(h, w.Reserved); vcIdx < 0 {
						// invariant: the victim resided in this buffer, so
						// discarding it freed a VC the requester may take —
						// which is why a candidate that passes roundBlocked's
						// test is never refused once it is tried.
						panic("network: a preemption did not yield its VC")
					}
				}
			}
			if vcIdx < 0 {
				if tried == 1 && n.roundBlocked(port, bids, prios, leg.In) {
					return true
				}
				failedBufs = append(failedBufs, int32(leg.In))
				n.failedScratch = failedBufs[:0] // keep the grown backing array
				continue
			}
		}
		n.grant(port, h, leg, buf, vcIdx, prio, now)
		return false
	}
	return true
}

// victimMemo is one buffer's worstVictim answer, kept for the rest of the
// allocation round that asked: a round changes no buffer before it grants,
// and a grant ends it.
type victimMemo struct {
	buf  topology.BufID
	vc   int32
	prio noc.Priority
}

// roundVictim is worstVictim through the current round's memo.
//
//go:noinline
func (n *Network) roundVictim(buf *inBuf, prios []noc.Priority) (int32, noc.Priority) {
	for i := range n.victims {
		if m := &n.victims[i]; m.buf == buf.id {
			return m.vc, m.prio
		}
	}
	vc, prio := n.worstVictim(buf, prios)
	n.victims = append(n.victims, victimMemo{buf.id, vc, prio})
	return vc, prio
}

// roundBlocked reports whether, the round's best bid having been refused
// on buffer failed, none of its unserved bids could be granted: each is an
// ordinary candidate for that same buffer, which the serve loop's
// failedBufs list refuses unasked, or finds no VC it may take and, where
// the preemption logic exists, prices its buffer's worst victim no higher
// than its own threshold. Refused tries change nothing and a try that
// passes this test succeeds (see the invariant in arbitrate), so a true
// answer is exactly the verdict the serve loop would reach by refusing
// them one by one; failedBufs only ever skips more candidates, so a false
// answer decides nothing.
//
//go:noinline
func (n *Network) roundBlocked(port *outPort, bids []bid, prios []noc.Priority, failed topology.BufID) bool {
	for i := range bids {
		if bids[i].h == noPkt {
			continue
		}
		w := &n.arena[bids[i].h]
		leg := &w.legs[w.Hop()]
		if leg.In == failed && !w.Reserved {
			continue
		}
		buf := &n.bufs[leg.In]
		hope := buf.canAlloc(w.Reserved)
		if !hope && n.mode == qos.PVC && !leg.Intermediate {
			_, vp := n.roundVictim(buf, prios)
			hope = vp > bids[i].prio+n.margin*port.table.PriorityStep(w.Flow)
		}
		if hope {
			n.roundsHopeful++
			return false
		}
	}
	n.roundsBlocked++
	return true
}

// tryInversionPreempt resolves a priority inversion at a busy output port:
// among the waiting candidates, the packet with the worst priority is
// discarded if it trails the best candidate by more than the hysteresis
// margin, is not rate-compliant, and is already buffered in the network
// (a packet still at its source has nothing to replay). At most one
// victim per cycle, as in hardware. Inversion preemption only exists
// where the preemption logic does: at ports with flow state.
func (n *Network) tryInversionPreempt(port *outPort, now sim.Cycle) {
	if port.table == nil || len(port.waiters) < 2 {
		return
	}
	if port.scanAt == port.epoch {
		// Nothing the scan reads has changed since it last found no
		// victim — rescanning would reproduce the same verdict.
		return
	}
	port.scanAt = port.epoch
	prios := port.table.Priorities()
	bestPrio := noc.WorstPriority
	worstPrio := noc.Priority(0)
	worst := noPkt
	var step noc.Priority
	for _, h := range port.waiters {
		w := &n.arena[h]
		leg := &w.legs[w.Hop()]
		prio := w.Priority
		if !leg.Intermediate {
			prio = prios[w.Flow]
		} else if w.frameStamp != n.frameCount {
			prio = 0
		}
		if prio < bestPrio {
			bestPrio = prio
			step = port.table.PriorityStep(w.Flow)
		}
		if prio > worstPrio && !w.Reserved && w.state == stWaiting && w.curBuf != noBuf {
			worstPrio = prio
			worst = h
		}
	}
	if worst == noPkt || bestPrio == noc.WorstPriority {
		return
	}
	if worstPrio > bestPrio+n.margin*step {
		n.preemptPacket(worst, port.spec.Node, now)
	}
}

// betterBid orders two candidates: lower priority class first, then the
// older packet (global age by creation time), then lower ID for
// determinism.
func betterBid(a, b *bid) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.created != b.created {
		return a.created < b.created
	}
	return a.id < b.id
}

// arbitrateRoundRobin is the NoQoS policy: rotate among candidates,
// granting the first that can obtain a VC. Locally fair, globally not —
// the starvation the paper motivates QoS with.
func (n *Network) arbitrateRoundRobin(port *outPort, now sim.Cycle) (noGrant bool) {
	idx := port.rr.Pick(len(port.waiters), func(i int) bool {
		w := &n.arena[port.waiters[i]]
		return n.bufs[w.legs[w.Hop()].In].canAlloc(w.Reserved)
	})
	if idx < 0 {
		return true // Pick left the rotation pointer untouched: the round repeats
	}
	h := port.waiters[idx]
	w := &n.arena[h]
	leg := &w.legs[w.Hop()]
	buf := &n.bufs[leg.In]
	vcIdx := buf.allocVC(h, w.Reserved)
	if vcIdx < 0 {
		return false
	}
	n.grant(port, h, leg, buf, vcIdx, w.Priority, now)
	return false
}

// grant commits the winner: flow-state update, transfer timing, VC and
// port occupancy, and the scheduled arrival/delivery/release events.
func (n *Network) grant(port *outPort, h pktH, leg *topology.Leg, buf *inBuf, vcIdx int32, prio noc.Priority, now sim.Cycle) {
	if n.grantHook != nil {
		n.grantHook(port, h)
	}
	n.lastProgress = now
	w := &n.arena[h]
	if !leg.Intermediate && port.table != nil {
		w.Priority = prio
		w.frameStamp = n.frameCount
		port.table.Record(w.Flow, w.Size)
	}

	headDep := now + sim.Cycle(leg.RouterDelay)
	headArr := headDep + sim.Cycle(leg.WireDelay)
	tailArr := headArr + sim.Cycle(w.Size-1)
	tailDep := headDep + sim.Cycle(w.Size-1)
	port.nextArb = now + sim.Cycle(w.Size)

	w.nxtBuf, w.nxtVC = int32(buf.id), vcIdx

	n.unregister(port, h)
	if w.curBuf == noBuf {
		n.onInjected(&n.srcs[w.srcIdx], h, tailDep, now)
	} else {
		// The upstream VC frees once the tail departs and the credit
		// crosses back to its allocator.
		rel := tailDep + sim.Cycle(w.creditDelay)
		cb := &n.bufs[w.curBuf]
		n.scheduleRelease(w.curBuf, int16(w.curVC), cb.gen(w.curVC), rel, now)
		w.curBuf, w.curVC = noBuf, -1
	}
	w.state = stMoving

	if leg.Final {
		n.scheduleDeliver(h, w.gen, int32(w.Retransmits), tailArr, now)
		// The terminal consumes the ejection buffer at link rate, so
		// its credit loop is local to the destination router: the VC
		// recycles one cycle behind the port cadence, letting the two
		// ejection VCs sustain a full flit per cycle even for streams
		// of single-flit packets (the paper's saturated hotspot runs
		// the terminal port at ~100%).
		n.scheduleRelease(int32(buf.id), int16(vcIdx), buf.gen(vcIdx),
			now+sim.Cycle(w.Size)+1, now)
	} else {
		n.scheduleHead(h, w.gen, int32(w.Retransmits), headArr, now)
	}
}

// preempt discards the packet in the given VC of buf.
func (n *Network) preempt(buf *inBuf, vcIdx int32, now sim.Cycle) {
	victim := buf.owner[vcIdx]
	if victim == noPkt {
		panic("network: preempting unowned VC")
	}
	if n.preemptHook != nil {
		n.preemptHook(buf, victim)
	}
	n.preemptPacket(victim, buf.node(), now)
}

// preemptPacket discards a packet outright: all resources it holds are
// freed, in-flight events become stale, and a NACK is dispatched on the
// dedicated ACK network from the preemption site so the source replays it
// (Section 3.1).
func (n *Network) preemptPacket(h pktH, siteNode int, now sim.Cycle) {
	victim := &n.arena[h]
	n.coll.Preempted(int(victim.weightedHops), !victim.wasPreempted)
	victim.wasPreempted = true

	// Free the victim's residence and any allocation it holds ahead of
	// itself; generation bumps turn the scheduled releases into no-ops.
	n.releaseAttempt(h, victim)
	victim.state = stDead
	victim.weightedHops = 0
	victim.ResetForRetransmit()

	// NACK travels back to the source on the ACK network. Until it lands
	// the victim's requeue belongs to it, not to any delivery timeout.
	victim.nackPending = true
	dist := sim.Cycle(topology.Distance(noc.NodeID(siteNode), victim.Src))
	n.schedule(&event{kind: evNack, p: h, pgen: victim.gen}, now+dist+n.cfg.QoS.AckDelay, now)
}
