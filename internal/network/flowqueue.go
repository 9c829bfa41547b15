package network

import (
	"fmt"
	"math/bits"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
)

// flowQueues is the port side of per-flow queueing (qos.PerFlowQueue):
// one queue of candidates per flow, each ordered by the packet's frozen
// key, plus a bitmap of the non-empty ones, so an allocation round
// compares queue heads — O(active flows) — where the flat scan in
// arbitrate builds a bid for every waiter, and this mode's unlimited VC
// pools (inBuf) let the backlog at one port run hundreds deep.
//
// Port i's index is Network.flowQs[i]; only this mode builds or reads it.
// register, unregister and grant know nothing of it: the port's
// waiters list stays the record of who is registered, waiters[:seen] is
// the part already filed here, and a round files waiters[seen:] before it
// compares. The round pops its own winner ahead of grant; the only other
// removals, both cold, go through withdraw. A port whose backlog has not
// passed flowQueueMin files nothing and arbitrates flat.
type flowQueues struct {
	seen   int
	flows  []flowQ
	active []uint64 // bit f set = flows[f] is non-empty
	// rounds and heads count the rounds run here and the queue heads they
	// compared (tests and BenchmarkSaturatedCycles).
	rounds, heads uint64
}

// flowQ is one flow's candidates at one port, items[head:] in betterBid
// order of their frozen keys. A registered packet's Created and ID never
// change; prio holds the carried priority where the flow crosses this
// port as a DPS intermediate hop (inter) and zero elsewhere, where every
// packet of the flow bids prios[Flow] — one term shared by the whole
// queue, so the queue's best bid is its head either way. A flow's path
// through a port is intermediate for all of its packets or for none
// (topology: a DPS leg is intermediate unless it leaves the source node).
type flowQ struct {
	items []bid
	head  int
	inter bool
}

// flowQueueMin is the backlog up to which a port with nothing filed
// leaves its round to arbitrate's flat scan: a handful of bids in the
// scratch array cost less than filing them. Past it the port files its
// candidates and keeps arbitrating over queue heads until it has drained.
// Measured on mecs at uniform 0.08 flits/cycle, where ports hold two or
// three candidates: ns per cycle 757 flat, 800 / 774 / 762 / 768 at 2 / 4
// / 8 / 16, the saturated points level at all four.
const flowQueueMin = 8

func (q *flowQ) empty() bool { return q.head == len(q.items) }

// reinit empties the index for a run over the given flow population,
// keeping every backing array.
func (fq *flowQueues) reinit(flows int) {
	fq.seen, fq.rounds, fq.heads = 0, 0, 0
	if cap(fq.flows) < flows {
		fq.flows = append(fq.flows[:cap(fq.flows)], make([]flowQ, flows-cap(fq.flows))...)
	}
	fq.flows = fq.flows[:flows]
	for i := range fq.flows {
		fq.flows[i].items, fq.flows[i].head = fq.flows[i].items[:0], 0
	}
	words := (flows + 63) / 64
	if cap(fq.active) < words {
		fq.active = make([]uint64, words)
	}
	fq.active = fq.active[:words]
	for i := range fq.active {
		fq.active[i] = 0
	}
}

// reinitFlowQueues gives every port an empty index sized for the flow
// population, building the ones a taller column's new ports lack.
func (n *Network) reinitFlowQueues(flows int) {
	for i := range n.ports {
		if i == len(n.flowQs) {
			n.flowQs = append(n.flowQs, new(flowQueues))
		}
		n.flowQs[i].reinit(flows)
	}
}

// file enters a registered candidate into its flow's queue. Arrivals are
// mostly the flow's youngest packet and land at the tail; a retransmission
// carries its original Created stamp and sinks to its place.
func (fq *flowQueues) file(n *Network, h pktH) {
	w := &n.arena[h]
	inter := w.legs[w.Hop()].Intermediate
	b := bid{created: w.Created, id: w.ID, h: h}
	if inter {
		b.prio = w.Priority
	}
	q := &fq.flows[w.Flow]
	if q.empty() {
		q.inter = inter
		fq.active[w.Flow>>6] |= 1 << (uint(w.Flow) & 63)
	} else if q.inter != inter {
		panic(fmt.Sprintf("network: flow %d crosses one port both as an intermediate hop and not", w.Flow))
	}
	q.items = append(q.items, b)
	for i := len(q.items) - 1; i > q.head && betterBid(&q.items[i], &q.items[i-1]); i-- {
		q.items[i], q.items[i-1] = q.items[i-1], q.items[i]
	}
}

// drop removes entry i of flow f's queue and keeps the bitmap exact. The
// array is rewound when the queue drains and compacted once the popped
// prefix dominates, like a source's fifo.
func (fq *flowQueues) drop(f noc.FlowID, i int) {
	q := &fq.flows[f]
	if i == q.head {
		q.head++
	} else {
		q.items = append(q.items[:i], q.items[i+1:]...)
	}
	switch {
	case q.empty():
		q.items, q.head = q.items[:0], 0
		fq.active[f>>6] &^= 1 << (uint(f) & 63)
	case q.head >= 32 && q.head*2 >= len(q.items):
		q.items, q.head = q.items[:copy(q.items, q.items[q.head:])], 0
	}
}

// forget drops a filed candidate that is leaving the port without having
// won. The caller unregisters it next; unregister's splice keeps the
// waiters' order, so the filed prefix is one shorter.
func (fq *flowQueues) forget(f noc.FlowID, h pktH) {
	q := &fq.flows[f]
	for i := q.head; i < len(q.items); i++ {
		if q.items[i].h == h {
			fq.drop(f, i)
			fq.seen--
			return
		}
	}
}

// withdraw removes a candidate that did not win its port: a preemption or
// timeout victim, a packet killed by a fault, an offer recalled because
// its route died.
func (n *Network) withdraw(p *outPort, h pktH) {
	if n.mode == qos.PerFlowQueue {
		n.flowQs[p.id].forget(n.arena[h].Flow, h)
	}
	n.unregister(p, h)
}

// arbitrateFlowQueues is arbitrate's allocation round under per-flow
// queueing once the port's backlog has passed flowQueueMin, reached behind
// the same fault gate and busy test: the best queue head under the
// (priority, Created, ID) order wins. The unlimited pool always admits it,
// so nothing is retried, skipped or preempted and every round grants.
// Bit-identical to the flat scan, which the contract table's reference
// row runs against it. (Carried priorities never go stale here: only PVC
// has a frame to flush.)
func (n *Network) arbitrateFlowQueues(port *outPort, now sim.Cycle) (noGrant bool) {
	fq := n.flowQs[port.id]
	prios := port.table.Priorities()
	for _, h := range port.waiters[fq.seen:] {
		fq.file(n, h)
	}
	var best bid
	bestFlow := noc.FlowID(-1)
	for wi, word := range fq.active {
		fq.heads += uint64(bits.OnesCount64(word))
		for ; word != 0; word &= word - 1 {
			f := noc.FlowID(wi<<6 + bits.TrailingZeros64(word))
			q := &fq.flows[f]
			b := q.items[q.head]
			if !q.inter {
				b.prio = prios[f]
			}
			if bestFlow < 0 || betterBid(&b, &best) {
				best, bestFlow = b, f
			}
		}
	}
	fq.rounds++
	fq.drop(bestFlow, fq.flows[bestFlow].head)
	w := &n.arena[best.h]
	leg := &w.legs[w.Hop()]
	buf := &n.bufs[leg.In]
	n.grant(port, best.h, leg, buf, buf.allocVC(best.h, w.Reserved), best.prio, now)
	fq.seen = len(port.waiters)
	return false
}
