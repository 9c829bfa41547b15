// Package qos implements the quality-of-service machinery of the paper's
// shared region: Preemptive Virtual Clock (PVC) [Grot, Keckler, Mutlu —
// MICRO 2009] flow-state tables, frame-based counter flushing, the reserved
// (rate-compliant) flit quota that throttles preemptions, and the two
// comparison policies used in the evaluation — idealized per-flow queueing
// (the preemption-free reference for Figure 6) and plain round-robin with
// no QoS (used to demonstrate hotspot starvation).
package qos

import (
	"fmt"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

// Mode selects the QoS policy a network operates under.
type Mode uint8

const (
	// PVC is Preemptive Virtual Clock: flow-state tables at each QoS
	// router, dynamic priorities, preemption on buffer scarcity, ACK
	// network and source retransmission.
	PVC Mode = iota
	// PerFlowQueue is the idealized, preemption-free QoS reference:
	// every flow has a dedicated queue at every input, so no packet is
	// ever discarded. This is the baseline the paper measures PVC's
	// preemption slowdown against (Figure 6).
	PerFlowQueue
	// NoQoS arbitrates round-robin with no flow state at all. With a
	// hotspot workload, sources close to the hotspot capture the
	// bandwidth and distant sources starve — the paper's motivation for
	// QoS in the shared region.
	NoQoS
)

// Modes lists the evaluated policies in the paper's comparison order.
func Modes() []Mode { return []Mode{PVC, PerFlowQueue, NoQoS} }

// ModeByName resolves a mode from its String name — the single
// name-to-enum mapping shared by scenario files and trace headers.
func ModeByName(name string) (Mode, error) {
	for _, m := range Modes() {
		if m.String() == name {
			return m, nil
		}
	}
	return 0, fmt.Errorf("qos: unknown mode %q (want pvc, per-flow-queue, no-qos)", name)
}

func (m Mode) String() string {
	switch m {
	case PVC:
		return "pvc"
	case PerFlowQueue:
		return "per-flow-queue"
	case NoQoS:
		return "no-qos"
	default:
		return fmt.Sprintf("mode(%d)", uint8(m))
	}
}

// DefaultFrameCycles is the PVC frame duration used throughout the paper's
// evaluation: bandwidth counters are flushed every 50 K cycles, which sets
// the granularity of the scheme's guarantees (Table 1).
const DefaultFrameCycles sim.Cycle = 50_000

// priorityScale is the fixed-point scale used to fold a flow's assigned
// service rate into its priority: priority = consumed × (scale / rate).
// 1024 gives < 0.1 % quantization error for rates down to 0.1 %.
const priorityScale = 1024

// PriorityQuantumFlits is the coarseness of PVC's dynamic priorities:
// bandwidth counters are compared in blocks of this many flits (hardware
// carries a truncated priority field in the packet header). The quantum is
// fine enough that service imbalances propagate through distributed
// arbiters within a couple of packets — the granularity behind Table 2's
// ~1 % throughput dispersion.
const PriorityQuantumFlits = 8

// PreemptionMarginClasses is the hysteresis of the preemption logic, in
// quantized priority classes: a victim must trail the requester by more
// than this many classes (64 × PriorityQuantumFlits flits of bandwidth)
// before being discarded. Arbitration order reacts to single-quantum imbalances, but
// discarding a packet — which wastes its buffered flits and every hop it
// has traversed — is reserved for gross inversions. This separation keeps
// preemption incidence in Section 5.2's 0.04–7 % band instead of constant
// churn among statistically-jittering equal flows.
const PreemptionMarginClasses = 64

// Config carries the QoS parameters of one simulated network.
type Config struct {
	Mode Mode
	// FrameCycles is the interval between flow-counter flushes.
	FrameCycles sim.Cycle
	// Rates is the assigned service rate of each flow as a fraction of
	// link bandwidth (flits/cycle). Rates need not sum to 1; PVC uses
	// them only relatively, to scale priorities, and absolutely, to size
	// the reserved per-frame quota. Rates is read-only once configured:
	// flow tables and quotas derive their own arrays from it, so many
	// networks may share one vector (a sweep grid's cells all do).
	Rates []float64
	// WindowPackets bounds the number of unacknowledged packets a source
	// may have in flight (the PVC retransmission window).
	WindowPackets int
	// AckDelay is the extra latency of the dedicated ACK network beyond
	// the hop distance, in cycles.
	AckDelay sim.Cycle

	// QuantumFlits overrides the priority quantization (default
	// PriorityQuantumFlits; must be a power of two). Coarser quanta
	// carry fewer header bits but let merge points drift further from
	// fairness before the priorities react.
	QuantumFlits int
	// MarginClasses overrides the preemption hysteresis (default
	// PreemptionMarginClasses). Smaller margins preempt more eagerly —
	// tighter inversion bounds, more replayed bandwidth.
	MarginClasses int
	// DisableReservedQuota switches off the rate-compliant flit quota,
	// exposing how PVC behaves without its main preemption throttle.
	DisableReservedQuota bool
}

// EffectiveQuantum returns the priority quantum in force.
func (c *Config) EffectiveQuantum() int {
	if c.QuantumFlits == 0 {
		return PriorityQuantumFlits
	}
	return c.QuantumFlits
}

// EffectiveMargin returns the preemption hysteresis in force.
func (c *Config) EffectiveMargin() int {
	if c.MarginClasses == 0 {
		return PreemptionMarginClasses
	}
	return c.MarginClasses
}

// DefaultWindowPackets is the per-source outstanding-packet window: how
// many unacknowledged packets a source may have in the network (each needs
// a replay-buffer slot for retransmission). It must cover the delivery +
// ACK round trip *including queueing delay at saturation*, or the window
// — not the QoS arbiter — ends up rationing distant flows' bandwidth and
// distorting fairness.
const DefaultWindowPackets = 64

// DefaultConfig returns the paper's evaluation configuration for n flows
// with equal assigned rates.
func DefaultConfig(n int) Config {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = 1.0 / float64(n)
	}
	return Config{
		Mode:          PVC,
		FrameCycles:   DefaultFrameCycles,
		Rates:         rates,
		WindowPackets: DefaultWindowPackets,
		AckDelay:      2,
	}
}

// Validate reports configuration errors a constructor should reject.
func (c *Config) Validate() error {
	if len(c.Rates) == 0 {
		return fmt.Errorf("qos: no flows configured")
	}
	for f, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("qos: flow %d has non-positive rate %v", f, r)
		}
	}
	if c.Mode == PVC && c.FrameCycles <= 0 {
		return fmt.Errorf("qos: PVC requires a positive frame duration, got %d", c.FrameCycles)
	}
	if c.WindowPackets <= 0 {
		return fmt.Errorf("qos: window must be positive, got %d", c.WindowPackets)
	}
	if q := c.EffectiveQuantum(); q < 1 || q&(q-1) != 0 {
		return fmt.Errorf("qos: priority quantum %d must be a power of two", q)
	}
	if c.MarginClasses < 0 {
		return fmt.Errorf("qos: negative preemption margin %d", c.MarginClasses)
	}
	return nil
}

// FlowTable is the per-router PVC flow state: one bandwidth counter per
// flow, scaled by the flow's assigned rate to yield a dynamic priority.
// Routers record every flit they forward; counters are cleared at frame
// boundaries so a flow's past consumption stops weighing on its present
// priority. Table size is proportional to the number of flows — exactly
// the per-flow state the paper charges to PVC's area budget (Figure 3).
//
// Priorities are cached in a flat per-flow array maintained eagerly:
// recomputed on Record (once per grant) and zeroed on Flush (once per
// frame), so the arbitration hot path — which reads Priority per
// candidate per allocation per cycle — costs a single array load instead
// of re-deriving quantize-and-scale each time. The cached value is
// produced by exactly the arithmetic Priority used to perform, so results
// are bit-identical.
type FlowTable struct {
	consumed []uint64       // flits forwarded this frame, per flow
	weight   []uint64       // fixed-point 1/rate per flow
	prio     []noc.Priority // cached (consumed >> shift) * weight, per flow
	shift    uint           // log2 of the priority quantum in flits
}

// NewFlowTableWithQuantum builds a table whose priorities are quantized to
// the given block size in flits (a power of two).
func NewFlowTableWithQuantum(rates []float64, quantumFlits int) *FlowTable {
	t := &FlowTable{}
	t.Reinit(rates, quantumFlits)
	return t
}

// Reinit re-seeds the table for a fresh simulation over the given rates,
// reusing the existing backing arrays when their capacity suffices. It is
// the allocation-reuse path of Network.Reset: a sweep worker re-running
// cells re-targets each port's table instead of reallocating three slices
// per port per cell.
func (t *FlowTable) Reinit(rates []float64, quantumFlits int) {
	if quantumFlits < 1 || quantumFlits&(quantumFlits-1) != 0 {
		panic(fmt.Sprintf("qos: priority quantum %d must be a power of two", quantumFlits))
	}
	shift := uint(0)
	for 1<<shift < quantumFlits {
		shift++
	}
	t.shift = shift
	t.consumed = resetUints(t.consumed, len(rates))
	t.weight = resetUints(t.weight, len(rates))
	t.prio = resetPrios(t.prio, len(rates))
	for f, r := range rates {
		if r <= 0 {
			panic(fmt.Sprintf("qos: flow %d rate %v must be positive", f, r))
		}
		w := uint64(priorityScale/r + 0.5)
		if w == 0 {
			w = 1
		}
		t.weight[f] = w
	}
}

// resetUints returns a zeroed slice of length n, reusing s's backing
// array when it is large enough.
func resetUints(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// resetPrios is resetUints for priority slices.
func resetPrios(s []noc.Priority, n int) []noc.Priority {
	if cap(s) < n {
		return make([]noc.Priority, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Record charges flits of bandwidth to flow f and refreshes the flow's
// cached priority.
func (t *FlowTable) Record(f noc.FlowID, flits int) {
	c := t.consumed[f] + uint64(flits)
	t.consumed[f] = c
	t.prio[f] = noc.Priority((c >> t.shift) * t.weight[f])
}

// Priority returns flow f's dynamic priority: consumption, quantized to
// the table's quantum, scaled by the inverse assigned rate. Lower is
// better — a flow that has used little of its entitlement wins
// arbitration. The value is served from the eagerly-maintained cache; it
// changes only inside Record and Flush.
func (t *FlowTable) Priority(f noc.FlowID) noc.Priority {
	return t.prio[f]
}

// Priorities exposes the flat cached-priority array for hot loops that
// index it directly (the engine's arbitration candidate scan). The slice
// is owned by the table: read-only, invalidated by Reinit.
func (t *FlowTable) Priorities() []noc.Priority { return t.prio }

// PriorityStep returns the priority-unit width of one quantized class for
// flow f (its fixed-point inverse rate). The preemption logic uses it as a
// hysteresis margin: a victim must trail the requester by more than one
// full class before being discarded, so single-class statistical jitter
// among equally-served flows never triggers preemptions.
func (t *FlowTable) PriorityStep(f noc.FlowID) noc.Priority {
	return noc.Priority(t.weight[f])
}

// Flush clears all bandwidth counters and cached priorities (a frame
// boundary).
func (t *FlowTable) Flush() {
	for i := range t.consumed {
		t.consumed[i] = 0
	}
	for i := range t.prio {
		t.prio[i] = 0
	}
}

// ReservedQuota implements PVC's preemption throttle: in each frame the
// first rate×frame flits a source injects are rate-compliant. Compliant
// packets may claim the reserved VC at each network port and are never
// preempted. With all sources transmitting within their allocations,
// virtually all traffic falls under the cap and preemptions vanish
// (Section 5.3).
type ReservedQuota struct {
	perFrame  []int64
	remaining []int64
}

// NewReservedQuota sizes each flow's per-frame quota from its assigned
// rate: quota = rate × frame, in flits.
func NewReservedQuota(rates []float64, frame sim.Cycle) *ReservedQuota {
	q := &ReservedQuota{}
	q.Reinit(rates, frame)
	return q
}

// Reinit re-seeds the quota for a fresh simulation, reusing the backing
// arrays when capacity suffices (the Network.Reset reuse path).
func (q *ReservedQuota) Reinit(rates []float64, frame sim.Cycle) {
	if cap(q.perFrame) < len(rates) {
		q.perFrame = make([]int64, len(rates))
		q.remaining = make([]int64, len(rates))
	}
	q.perFrame = q.perFrame[:len(rates)]
	q.remaining = q.remaining[:len(rates)]
	for f, r := range rates {
		n := int64(r * float64(frame))
		if n < 0 {
			n = 0
		}
		q.perFrame[f] = n
		q.remaining[f] = n
	}
}

// TryConsume attempts to charge flits against flow f's remaining quota.
// It returns true — and the packet should be marked rate-compliant — only
// when the whole packet fits under the cap.
func (q *ReservedQuota) TryConsume(f noc.FlowID, flits int) bool {
	if q.remaining[f] < int64(flits) {
		return false
	}
	q.remaining[f] -= int64(flits)
	return true
}

// Refill resets every flow's quota (a frame boundary).
func (q *ReservedQuota) Refill() {
	copy(q.remaining, q.perFrame)
}

// FrameTimer tracks PVC frame boundaries. The engine calls Expired once
// per cycle; when it fires, flow tables are flushed and quotas refilled.
type FrameTimer struct {
	frame sim.Cycle
	next  sim.Cycle
}

// NewFrameTimer creates a timer with the given frame duration.
func NewFrameTimer(frame sim.Cycle) *FrameTimer {
	t := &FrameTimer{}
	t.Reinit(frame)
	return t
}

// Reinit rewinds the timer to cycle zero with the given frame duration
// (the Network.Reset reuse path).
func (t *FrameTimer) Reinit(frame sim.Cycle) {
	if frame <= 0 {
		panic("qos: frame duration must be positive")
	}
	*t = FrameTimer{frame: frame, next: frame}
}

// Expired reports whether a frame boundary is crossed at cycle now, and
// advances to the next frame when it is.
func (t *FrameTimer) Expired(now sim.Cycle) bool {
	if now < t.next {
		return false
	}
	t.next += t.frame
	return true
}

// Next returns the cycle of the next frame boundary. The event-driven
// engine folds it into its next-wake computation so that idle fast-forwards
// never jump over a counter flush or quota refill.
func (t *FrameTimer) Next() sim.Cycle { return t.next }
