// Package noc defines the datatypes shared by every network model in tanoq:
// nodes, flows, packets, virtual channels and traffic classes. The
// terminology follows the paper: a *node* is a network node (a router); a
// *terminal* is a discrete system resource (core, cache tile, memory
// controller) with a dedicated port at a node; a *flow* is the unit of QoS
// accounting — one traffic injector with an assigned rate of service.
package noc

import (
	"fmt"

	"tanoq/internal/sim"
)

// NodeID identifies a router in the simulated network. In the shared-region
// column study nodes are numbered 0..7 top to bottom.
type NodeID int

// FlowID identifies a QoS flow: one injector (a terminal port or one of the
// MECS row inputs feeding the column). PVC tracks bandwidth per FlowID.
type FlowID int

// Class is the traffic class of a packet. The paper models two packet sizes
// corresponding to request (1 flit) and reply (4 flit) traffic, without
// specializing buffers by class.
type Class uint8

const (
	// ClassRequest packets are single-flit (e.g. a read request or
	// coherence control message).
	ClassRequest Class = iota
	// ClassReply packets are four flits (a cache-line-bearing reply on
	// 16-byte links).
	ClassReply
)

// PacketKind is the closed-loop role of a packet. Open-loop synthetic
// traffic leaves it at the zero value; the closed-loop workload layer
// (internal/workload) marks client-issued packets as requests and the
// server-side answers as replies, and uses the distinction at delivery
// time to trigger replies and credit client windows.
type PacketKind uint8

const (
	// KindOpen is open-loop synthetic traffic (the zero value, so every
	// pre-existing workload is unchanged).
	KindOpen PacketKind = iota
	// KindRequest is a closed-loop client request awaiting a reply.
	KindRequest
	// KindReply answers a request; its delivery credits the issuing
	// client's window of outstanding requests.
	KindReply
)

func (k PacketKind) String() string {
	switch k {
	case KindRequest:
		return "request"
	case KindReply:
		return "reply"
	default:
		return "open"
	}
}

// Flits returns the packet size in flits for the class.
func (c Class) Flits() int {
	if c == ClassReply {
		return ReplyFlits
	}
	return RequestFlits
}

func (c Class) String() string {
	if c == ClassReply {
		return "reply"
	}
	return "request"
}

// Link and packet geometry shared by every topology in the study
// (Section 4, Table 1 of the paper).
const (
	// RequestFlits is the size of request packets.
	RequestFlits = 1
	// ReplyFlits is the size of reply packets and the maximum packet
	// size; with virtual cut-through each VC must hold a full packet.
	ReplyFlits = 4
	// WireDelay is the wire latency in cycles between adjacent routers.
	WireDelay = 1
)

// Priority is a PVC dynamic priority. Lower values are *better* (served
// first): a flow's priority is its accumulated bandwidth consumption scaled
// by its assigned rate of service, so lightly-served flows win arbitration.
type Priority uint64

// WorstPriority compares as lower-priority than any real priority value.
const WorstPriority Priority = ^Priority(0)

// Packet is the unit of transfer. Packets are created by traffic injectors,
// carried through the network by virtual cut-through switching, and either
// delivered (then ACKed to the source) or preempted (discarded; then NACKed
// and retransmitted from the source window).
type Packet struct {
	// ID is unique per logical packet for the lifetime of a simulation.
	// A retransmission keeps the ID of the packet it replays.
	ID uint64
	// Flow is the injector this packet belongs to.
	Flow FlowID
	// Src is the column node at which the packet enters the network.
	Src NodeID
	// Dst is the column node whose terminal the packet must reach.
	Dst NodeID
	// Class determines the size in flits.
	Class Class
	// Size is the length in flits (cached from Class at creation).
	Size int

	// Kind is the closed-loop role of the packet (open/request/reply);
	// open-loop traffic leaves the zero value.
	Kind PacketKind
	// Parent is opaque parent-transaction metadata propagated by the
	// closed-loop workload layer: a reply carries its request's Parent
	// verbatim, letting the layer correlate the two ends of a round trip
	// without any lookup state (the layer stores the request's issue
	// cycle here). Zero for open-loop traffic.
	Parent uint64

	// Priority is the PVC priority carried in the header. It is computed
	// from the flow table at injection and refreshed at flow-table-
	// equipped routers ("priority reuse" lets intermediate DPS hops use
	// the carried value without a table lookup).
	Priority Priority
	// Reserved marks a rate-compliant packet: it was injected within the
	// source's reserved quota for the current frame, may claim the
	// reserved VC at each port, and must never be preempted.
	Reserved bool

	// Created is the cycle the logical packet was first generated.
	Created sim.Cycle
	// Injected is the cycle this (re)transmission entered the network.
	Injected sim.Cycle

	// Retransmits counts how many times the packet was preempted and
	// replayed.
	Retransmits int
	// HopsDone counts completed hop traversals of the current
	// transmission attempt; on preemption these are the wasted hops that
	// must be replayed.
	HopsDone int
	// hop is the index of the current leg on the packet's path.
	hop int
}

// Hop returns the index of the path leg the packet is currently on.
func (p *Packet) Hop() int { return p.hop }

// AdvanceHop moves the packet to its next path leg and records the
// completed traversal.
func (p *Packet) AdvanceHop() {
	p.hop++
	p.HopsDone++
}

// ResetForRetransmit rewinds the packet to its source for replay after a
// preemption. The original creation time is kept so end-to-end latency
// accounts for the wasted attempt; priority will be recomputed at
// re-injection.
func (p *Packet) ResetForRetransmit() {
	p.hop = 0
	p.HopsDone = 0
	p.Retransmits++
}

func (p *Packet) String() string {
	return fmt.Sprintf("pkt %d flow %d %d->%d %s prio %d hop %d",
		p.ID, p.Flow, p.Src, p.Dst, p.Class, p.Priority, p.hop)
}

// Virtual-channel state lives in the network engine's struct-of-arrays
// buffers (internal/network), not in a per-VC object here: under virtual
// cut-through a VC is owned by exactly one packet at a time and must be
// deep enough (ReplyFlits) to hold the largest packet, and the engine
// tracks that ownership as flat handle/generation arrays with a free-VC
// occupancy bitmap.
