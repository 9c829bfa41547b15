package network

import (
	"tanoq/internal/noc"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// pktH is a packet handle: the index of a packet's slot in the network's
// arena, guarded by the slot's recycling generation. Handles are what the
// engine stores everywhere a pointer used to live — candidate lists, VC
// ownership, source queues, events — which keeps every such container a
// dense, pointer-free array: the garbage collector never scans them, and
// following a handle is one indexed load into the flat arena instead of a
// pointer chase across individually-allocated wrappers.
//
// Handle 0 is reserved as the nil handle; arena slot 0 is a permanent
// dummy so that (&arena[h]) is valid for every handle without a branch.
type pktH uint32

// noPkt is the nil packet handle.
const noPkt pktH = 0

// Pre-sized working-set capacities. The engine's containers all keep
// their backing arrays across recycling and Reset, so growth only ever
// happens when a run exceeds every previous high-water mark; sizing the
// initial allocation past the depths sub-saturation traffic actually
// reaches makes steady-state operation allocation-free rather than
// merely allocation-amortized. A run that genuinely needs more (a
// saturated workload's unbounded backlog) still grows correctly.
const (
	// arenaCap is the initial packet-slot capacity (~2K slots). Live
	// slots are bounded by offered and in-network packets, never by the
	// backlog, which waits in the sources' pending FIFOs; even a
	// saturated 8x64-flow column stays inside this.
	arenaCap = 2048
	// waitersCap is the initial capacity of a port's candidate list and
	// of the bid scratch: past the upstream VCs routed through a port plus
	// its offered sources while VC pools are finite. Under per-flow
	// queueing they are not, a hotspot's list runs hundreds deep and grows
	// past this, and the allocation round goes over the port's flow
	// queues instead of bidding the list (flowqueue.go).
	waitersCap = 32
	// srcQueueBytes is the initial size of each per-source FIFO (the
	// pending backlog and the retransmission queue), in bytes of
	// elements, covering sub-saturation backlog spikes: 32 pending
	// records or 256 retransmission handles.
	srcQueueBytes = 1024
)

// pktState tracks where a packet is in its lifecycle.
type pktState uint8

const (
	stAtSource pktState = iota
	stWaiting           // buffered, registered as an arbitration candidate
	stMoving            // won arbitration; flits in flight to the next buffer
	stDelivered
	stDead // preempted; awaiting NACK and retransmission
)

// noBuf marks an unset buffer reference in a packet.
const noBuf int32 = -1

// pkt is one arena slot: the packet itself (noc.Packet inline, not behind
// a pointer) plus the engine-side bookkeeping — its path, current
// residence (buffer + VC), in-progress allocation and hop accounting.
type pkt struct {
	noc.Packet
	// legs is the packet's path, a shared read-only slice precomputed by
	// the topology graph.
	legs []topology.Leg
	// srcIdx is the index of the packet's injector in Network.srcs.
	srcIdx int32

	state pktState
	// Current residence (noBuf/-1 while at source or fully in flight).
	curBuf int32
	curVC  int32
	// Next-hop allocation while moving.
	nxtBuf int32
	nxtVC  int32
	// creditDelay is the wire time for this buffer's free-VC credit to
	// reach the upstream allocator, recorded at head arrival.
	creditDelay int32
	// frameStamp is the PVC frame in which the carried priority was
	// computed. Priorities are frame-relative: a stamp from an earlier
	// frame reads as zero consumption, exactly like the flushed
	// counters it was derived from.
	frameStamp int32
	// weightedHops accumulates mesh-normalized hop traversals of the
	// current attempt; wasted on preemption.
	weightedHops int32
	wasPreempted bool

	// retrySeq counts injections of this packet; a delivery-timeout event
	// carries the sequence it was armed for, so a reinjection turns the
	// previous injection's timer into a no-op. timeoutRetries counts
	// timeout-driven retransmissions against FaultConfig.MaxRetries and
	// indexes the RTO-doubling backoff. nackPending marks a preemption
	// victim whose NACK is still on the ACK network — the NACK owns its
	// requeue, and a concurrent delivery timeout must not double-queue it.
	retrySeq       int32
	timeoutRetries int32
	nackPending    bool

	// enq is when the packet became an arbitration candidate at its
	// current position.
	enq sim.Cycle
	// gen is the recycling generation of this slot. The engine reuses
	// slots through the free stack once the logical packet is fully
	// acknowledged; events carry the generation they were scheduled
	// against, so an event that outlives its packet's lifetime becomes a
	// no-op instead of acting on the reused slot.
	gen uint32
}

// pktAt resolves a handle to its arena slot. The returned pointer is
// valid until the next newPacket call (arena growth may move the backing
// array), so it must not be retained across engine steps.
func (n *Network) pktAt(h pktH) *pkt { return &n.arena[h] }

// newPacket mints the arena slot for a source's pending record, reusing a
// recycled slot when one is on the free stack. Every field of the slot is
// rewritten, so a recycled packet is indistinguishable from a fresh
// allocation and recycling cannot perturb simulation results.
func (n *Network) newPacket(s *source, r pending) pktH {
	var h pktH
	if k := len(n.free); k > 0 {
		h = n.free[k-1]
		n.free = n.free[:k-1]
		p := &n.arena[h]
		gen := p.gen
		*p = pkt{gen: gen}
	} else {
		n.arena = append(n.arena, pkt{})
		h = pktH(len(n.arena) - 1)
	}
	p := &n.arena[h]
	p.ID = r.id
	p.Parent = r.parent
	p.Flow = noc.FlowID(r.flow)
	p.Src = s.spec.Node
	p.Dst = noc.NodeID(r.dst)
	p.Class = r.class
	p.Kind = r.kind
	p.Size = r.class.Flits()
	p.Created = r.created
	p.srcIdx = s.idx
	p.curBuf, p.curVC = noBuf, -1
	p.nxtBuf, p.nxtVC = noBuf, -1
	return h
}

// recycle returns a fully-acknowledged packet's slot to the free stack.
// The generation bump turns any event still scheduled against this slot
// into a no-op. Recycling is suppressed while diagnostic hooks are
// installed: hooks hand out handles that tests may resolve after the run,
// which is only meaningful while slots are never reused.
func (n *Network) recycle(h pktH) {
	if n.preemptHook != nil || n.grantHook != nil {
		return
	}
	n.arena[h].gen++
	n.free = append(n.free, h)
}
