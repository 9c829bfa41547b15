package network

import (
	"fmt"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
	"tanoq/internal/traffic"
)

// This file is the engine's workload-attachment surface: a delivery hook
// observing every completed delivery, a generation hook observing every
// packet generation (the injection stream a trace recorder captures), and
// ScheduleInjection, which lets an external driver — the closed-loop
// client controller of internal/workload — generate packets at exact
// future cycles. All three are zero-cost and bit-identical when unused:
// the hooks are a nil check on paths that already run once per packet,
// and scheduled injections ride the existing event wheel, so they are
// first-class events the idle fast-forward accounts for exactly.
//
// Unlike the diagnostic preempt/grant hooks, none of these suppress
// packet-slot recycling: they hand out value copies, never handles, so
// the arena keeps recycling and the steady-state allocation guarantee
// holds with them installed (TestStepAllocationFreeWithDeliveryHook).

// Delivery describes one delivered packet, passed by value to the
// delivery hook at the cycle the tail flit crosses the destination
// terminal (after statistics are charged, before the ACK is scheduled).
type Delivery struct {
	// ID is the packet's unique ID; Parent is the opaque parent-
	// transaction metadata the workload layer propagated into it.
	ID     uint64
	Parent uint64
	Flow   noc.FlowID
	Src    noc.NodeID
	Dst    noc.NodeID
	Class  noc.Class
	Kind   noc.PacketKind
	// SrcIdx is the injector's index in the workload spec order.
	SrcIdx int32
	// Created is the cycle the logical packet was generated, Injected
	// the cycle this (final) transmission entered the network, and At
	// the delivery cycle.
	Created  sim.Cycle
	Injected sim.Cycle
	At       sim.Cycle
}

// SetDeliveryHook installs fn to observe every delivery (nil uninstalls).
// The hook may call ScheduleInjection — that is how closed-loop replies
// and window credits are wired — and runs on the engine's single thread
// in deterministic event order. Reset uninstalls it: workload drivers
// re-attach per cell.
func (n *Network) SetDeliveryHook(fn func(Delivery)) { n.deliveryHook = fn }

// SetGenHook installs fn to observe every packet generation as a
// traffic.TraceRecord (nil uninstalls) — the injection stream, exactly
// what a trace recorder persists. Like the delivery hook it is cleared by
// Reset.
func (n *Network) SetGenHook(fn func(traffic.TraceRecord)) { n.genHook = fn }

// injPoolCap pre-sizes the pending-injection pool to the closed-loop
// working set (clients x outstanding window slots); see the working-set
// capacities in arena.go.
const injPoolCap = 256

// pendingInj is one scheduled external injection, parked between
// ScheduleInjection and its evInject firing. Records live in a reusable
// pool indexed by the event's buf field.
type pendingInj struct {
	parent uint64
	dst    noc.NodeID
	flow   noc.FlowID // QoS flow charged (-1 = the source's own)
	si     int32
	class  noc.Class
	kind   noc.PacketKind
}

// ScheduleInjection schedules the generation of one packet: at cycle at
// (clamped to the current cycle if in the past), source srcIdx generates
// a packet of the given class and kind for dst, carrying parent as its
// parent-transaction metadata. The generated packet enters the source's
// queue exactly as a sampler arrival would — it still competes for the
// injection VC, the PVC window and first-leg arbitration.
//
// flow selects the QoS flow the packet is charged to: pass a negative
// flow for the source's own, or an explicit flow within the provisioned
// population for carried charging — a closed-loop reply travels on the
// server node's injector but is charged to the requesting client's flow,
// the accounting request–reply hardware uses (a memory controller's
// replies bill the requestor), and the reason QoS can equalize per-client
// reply bandwidth on the contended path back.
//
// The injection is a first-class event: the idle fast-forward wakes for
// it exactly, and same-cycle injections fire in schedule order. Calling
// from within a delivery hook with at equal to the delivery cycle
// generates the packet in that very cycle, before the cycle's offer pass
// (the closed-loop "reply at the ejection side" path).
func (n *Network) ScheduleInjection(srcIdx int, flow noc.FlowID, dst noc.NodeID, class noc.Class, kind noc.PacketKind, parent uint64, at sim.Cycle) {
	if srcIdx < 0 || srcIdx >= len(n.srcs) {
		panic(fmt.Sprintf("network: ScheduleInjection source index %d outside workload of %d", srcIdx, len(n.srcs)))
	}
	if int(dst) < 0 || int(dst) >= n.cfg.Nodes {
		panic(fmt.Sprintf("network: ScheduleInjection destination %d outside column of %d", dst, n.cfg.Nodes))
	}
	if int(flow) >= n.cfg.Workload.TotalFlows() {
		panic(fmt.Sprintf("network: ScheduleInjection flow %d outside population of %d", flow, n.cfg.Workload.TotalFlows()))
	}
	if flow < 0 {
		flow = -1
	}
	if n.injPool == nil {
		n.injPool = make([]pendingInj, 0, injPoolCap)
		n.injFree = make([]int32, 0, injPoolCap)
	}
	var slot int32
	if k := len(n.injFree); k > 0 {
		slot = n.injFree[k-1]
		n.injFree = n.injFree[:k-1]
	} else {
		n.injPool = append(n.injPool, pendingInj{})
		slot = int32(len(n.injPool) - 1)
	}
	n.injPool[slot] = pendingInj{
		parent: parent, dst: dst, flow: flow, si: int32(srcIdx), class: class, kind: kind,
	}
	now := n.clock.Now()
	if at < now {
		at = now
	}
	n.schedule(&event{kind: evInject, buf: slot}, at, now)
}

// generateScheduled emits one externally scheduled packet (an evInject
// firing): the mirror of generate without any RNG draw — class,
// destination and timing were fixed at scheduling time.
func (n *Network) generateScheduled(rec pendingInj, now sim.Cycle) {
	s := &n.srcs[rec.si]
	flow := s.spec.Flow
	if rec.flow >= 0 {
		flow = rec.flow
	}
	n.enqueue(s, flow, rec.dst, rec.class, rec.kind, rec.parent, now)
}
