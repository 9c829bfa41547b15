package network

import (
	"slices"

	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// referenceRound is PVC's allocation round (Section 3.1; Preemptive
// Virtual Clock, MICRO 2009) in its plainest form: the oracle the contract
// table holds arbitrate's fast paths to. It keeps no verdict memo (it
// never reads blockedAt, and forgets scanAt before every inversion scan),
// has no sole-candidate path, no flow queues, no roundBlocked shortcut
// and no victim memo. It builds every bid, then repeatedly tries the best
// one not yet tried; a candidate that finds its buffer full preempts the
// buffer's worst victim if that victim trails it by more than the
// hysteresis margin. The one inexact rule arbitrate has, failedBufs, is
// kept: once a better bid has been refused by a buffer, an ordinary
// candidate for that buffer is refused unasked. No-QoS ports rotate
// through arbitrateRoundRobin, as in arbitrate.
func (n *Network) referenceRound(port *outPort, now sim.Cycle) {
	if n.fltOn && n.portBlocked(port) {
		return
	}
	if now < port.nextArb {
		if n.mode == qos.PVC {
			port.scanAt = port.epoch - 1 // the scan runs whatever it found last time
			n.tryInversionPreempt(port, now)
		}
		return
	}
	if n.mode == qos.NoQoS {
		n.arbitrateRoundRobin(port, now)
		return
	}
	prios := port.table.Priorities()
	bids := n.bidScratch[:0]
	for _, h := range port.waiters {
		w := &n.arena[h]
		prio := w.Priority
		if !w.legs[w.Hop()].Intermediate {
			prio = prios[w.Flow]
		} else if w.frameStamp != n.frameCount {
			prio = 0
		}
		bids = append(bids, bid{prio: prio, created: w.Created, id: w.ID, h: h})
	}
	n.bidScratch = bids[:0] // keep the grown array
	var failed []topology.BufID
	for len(bids) > 0 {
		best := 0
		for i := range bids {
			if betterBid(&bids[i], &bids[best]) {
				best = i
			}
		}
		b := bids[best]
		bids[best] = bids[len(bids)-1]
		bids = bids[:len(bids)-1]

		w := &n.arena[b.h]
		leg := &w.legs[w.Hop()]
		buf := &n.bufs[leg.In]
		if !w.Reserved && slices.Contains(failed, leg.In) {
			continue
		}
		vc := buf.allocVC(b.h, w.Reserved)
		if vc < 0 && n.mode == qos.PVC && !leg.Intermediate {
			threshold := b.prio + n.margin*port.table.PriorityStep(w.Flow)
			if victim, vp := n.worstVictim(buf, prios); vp > threshold {
				n.preempt(buf, victim, now)
				vc = buf.allocVC(b.h, w.Reserved)
			}
		}
		if vc >= 0 {
			n.grant(port, b.h, leg, buf, vc, b.prio, now)
			return
		}
		failed = append(failed, leg.In)
	}
}
