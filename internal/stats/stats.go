// Package stats provides the measurement machinery of the evaluation:
// per-flow throughput and latency collection with warmup-aware measurement
// windows, preemption accounting (events and normalized wasted hops), and
// the fairness mathematics the paper reports against — max-min fair
// allocations via water-filling, deviation from expectation, and summary
// dispersion statistics.
package stats

import (
	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

// Collector accumulates simulation metrics. Counters are only charged
// while measuring, so a warmup phase can be excluded; resource-level
// bookkeeping (e.g. hop totals) follows the same gate.
type Collector struct {
	flows     int
	measuring bool
	start     sim.Cycle

	// Per-flow, measurement window only.
	DeliveredPackets []int64
	DeliveredFlits   []int64
	LatencySumByFlow []int64
	// RetriesByFlow counts timeout-driven end-to-end retransmissions
	// charged to each flow; DropsByFlow counts packets the flow abandoned
	// for good (retry budget exhausted, unroutable destination, or loss
	// with recovery disabled).
	RetriesByFlow []int64
	DropsByFlow   []int64

	// Aggregates, measurement window only.
	TotalDelivered   int64
	TotalLatency     int64
	InjectedPackets  int64
	InjectedFlits    int64
	PreemptionEvents int64
	PreemptedUnique  int64
	WastedHops       int64
	TotalHops        int64
	Retransmits      int64
	LastDelivery     sim.Cycle
	MaxLatency       int64
	// Fault-injection and end-to-end recovery aggregates: TotalRetries
	// and TotalDropped sum the per-flow counters above; FaultDrops counts
	// in-network transmission attempts killed by a fault (each such
	// attempt either retries or becomes a drop); RecoveredPackets and
	// RecoveryLatencySum track deliveries that needed at least one
	// timeout retransmission and their end-to-end latencies.
	TotalRetries       int64
	TotalDropped       int64
	FaultDrops         int64
	RecoveredPackets   int64
	RecoveryLatencySum int64

	// Latencies is the delivered-packet latency distribution, for tail
	// percentiles (p50/p99 of the load-latency curves).
	Latencies Histogram
}

// Totals is a plain-value snapshot of the collector's scalar counters —
// the slice of state a telemetry probe differences between sampling
// ticks. Returning it by value keeps the read allocation-free, and
// including the delivered-flit sum here (the collector tracks it only
// per flow) saves every consumer the same reduction.
type Totals struct {
	InjectedFlits    int64
	DeliveredFlits   int64
	DeliveredPackets int64
	Retransmits      int64
	Retries          int64
	Preemptions      int64
	Dropped          int64
	FaultDrops       int64
}

// Totals snapshots the scalar counters at this instant.
func (c *Collector) Totals() Totals {
	var df int64
	for _, f := range c.DeliveredFlits {
		df += f
	}
	return Totals{
		InjectedFlits:    c.InjectedFlits,
		DeliveredFlits:   df,
		DeliveredPackets: c.TotalDelivered,
		Retransmits:      c.Retransmits,
		Retries:          c.TotalRetries,
		Preemptions:      c.PreemptionEvents,
		Dropped:          c.TotalDropped,
		FaultDrops:       c.FaultDrops,
	}
}

// Sub returns the per-interval delta t−prev, field by field.
func (t Totals) Sub(prev Totals) Totals {
	return Totals{
		InjectedFlits:    t.InjectedFlits - prev.InjectedFlits,
		DeliveredFlits:   t.DeliveredFlits - prev.DeliveredFlits,
		DeliveredPackets: t.DeliveredPackets - prev.DeliveredPackets,
		Retransmits:      t.Retransmits - prev.Retransmits,
		Retries:          t.Retries - prev.Retries,
		Preemptions:      t.Preemptions - prev.Preemptions,
		Dropped:          t.Dropped - prev.Dropped,
		FaultDrops:       t.FaultDrops - prev.FaultDrops,
	}
}

// NewCollector creates a collector for the given flow population. It
// starts measuring immediately; call Reset after warmup to discard the
// transient.
func NewCollector(flows int) *Collector {
	return &Collector{
		flows: flows, measuring: true,
		DeliveredPackets: make([]int64, flows),
		DeliveredFlits:   make([]int64, flows),
		LatencySumByFlow: make([]int64, flows),
		RetriesByFlow:    make([]int64, flows),
		DropsByFlow:      make([]int64, flows),
	}
}

// Flows returns the flow population size.
func (c *Collector) Flows() int { return c.flows }

// Reset clears all counters in place and marks the beginning of the
// measurement window at cycle now. The per-flow slices keep their
// backing arrays: nothing reads them across the warmup/measure boundary
// (a telemetry sampler copies values and re-baselines on the mark).
func (c *Collector) Reset(now sim.Cycle) {
	clear(c.DeliveredPackets)
	clear(c.DeliveredFlits)
	clear(c.LatencySumByFlow)
	clear(c.RetriesByFlow)
	clear(c.DropsByFlow)
	c.TotalDelivered, c.TotalLatency = 0, 0
	c.InjectedPackets, c.InjectedFlits = 0, 0
	c.PreemptionEvents, c.PreemptedUnique = 0, 0
	c.WastedHops, c.TotalHops = 0, 0
	c.Retransmits = 0
	c.LastDelivery = 0
	c.MaxLatency = 0
	c.TotalRetries, c.TotalDropped, c.FaultDrops = 0, 0, 0
	c.RecoveredPackets, c.RecoveryLatencySum = 0, 0
	c.Latencies.Reset()
	c.start = now
	c.measuring = true
}

// Pause suspends measurement (warmup/drain phases).
func (c *Collector) Pause() { c.measuring = false }

// Measuring reports whether counters are live.
func (c *Collector) Measuring() bool { return c.measuring }

// Start returns the beginning of the measurement window.
func (c *Collector) Start() sim.Cycle { return c.start }

// Injected records a packet entering the network.
func (c *Collector) Injected(flits int) {
	if !c.measuring {
		return
	}
	c.InjectedPackets++
	c.InjectedFlits += int64(flits)
}

// Delivered records a packet's arrival at its destination terminal.
func (c *Collector) Delivered(f noc.FlowID, flits int, latency int64, now sim.Cycle) {
	if !c.measuring {
		return
	}
	c.DeliveredPackets[f]++
	c.DeliveredFlits[f] += int64(flits)
	c.LatencySumByFlow[f] += latency
	c.TotalDelivered++
	c.TotalLatency += latency
	c.Latencies.Observe(latency)
	if latency > c.MaxLatency {
		c.MaxLatency = latency
	}
	if now > c.LastDelivery {
		c.LastDelivery = now
	}
}

// Preempted records one preemption event and the (mesh-normalized) hop
// traversals wasted by it. firstForPacket distinguishes packets' first
// preemption, for the unique-packet rate.
func (c *Collector) Preempted(wastedHops int, firstForPacket bool) {
	if !c.measuring {
		return
	}
	c.PreemptionEvents++
	c.Retransmits++
	c.WastedHops += int64(wastedHops)
	if firstForPacket {
		c.PreemptedUnique++
	}
}

// TimeoutRetry records one timeout-driven end-to-end retransmission
// charged to the owning flow.
func (c *Collector) TimeoutRetry(f noc.FlowID) {
	if !c.measuring {
		return
	}
	c.RetriesByFlow[f]++
	c.TotalRetries++
}

// Dropped records a packet abandoned for good: its retry budget ran out,
// its destination became unroutable, or it was lost with recovery disabled.
func (c *Collector) Dropped(f noc.FlowID) {
	if !c.measuring {
		return
	}
	c.DropsByFlow[f]++
	c.TotalDropped++
}

// FaultDropped records one in-network transmission attempt killed by a
// link fault or stall.
func (c *Collector) FaultDropped() {
	if !c.measuring {
		return
	}
	c.FaultDrops++
}

// Recovered records a delivery that needed at least one timeout
// retransmission, with its end-to-end latency (creation to delivery).
func (c *Collector) Recovered(latency int64) {
	if !c.measuring {
		return
	}
	c.RecoveredPackets++
	c.RecoveryLatencySum += latency
}

// HopTraversed records weight completed hop traversals (useful or not);
// the denominator of the wasted-hop rate.
func (c *Collector) HopTraversed(weight int) {
	if !c.measuring {
		return
	}
	c.TotalHops += int64(weight)
}

// MeanLatency returns the average delivered-packet latency in cycles.
func (c *Collector) MeanLatency() float64 {
	if c.TotalDelivered == 0 {
		return 0
	}
	return float64(c.TotalLatency) / float64(c.TotalDelivered)
}

// AcceptedFlitRate returns delivered flits per cycle over the window
// ending at cycle now.
func (c *Collector) AcceptedFlitRate(now sim.Cycle) float64 {
	d := now - c.start
	if d <= 0 {
		return 0
	}
	var total int64
	for _, v := range c.DeliveredFlits {
		total += v
	}
	return float64(total) / float64(d)
}

// PreemptionPacketRate returns preemption events as a percentage of
// delivered packets (Figure 5's "Packets" bar; a packet preempted twice
// counts twice, per Section 5.3).
func (c *Collector) PreemptionPacketRate() float64 {
	if c.TotalDelivered == 0 {
		return 0
	}
	return 100 * float64(c.PreemptionEvents) / float64(c.TotalDelivered)
}

// WastedHopRate returns wasted hop traversals as a percentage of all hop
// traversals (Figure 5's "Hops" bar).
func (c *Collector) WastedHopRate() float64 {
	if c.TotalHops == 0 {
		return 0
	}
	return 100 * float64(c.WastedHops) / float64(c.TotalHops)
}

// MeanRecoveryLatency returns the average end-to-end latency of packets
// that needed at least one timeout retransmission.
func (c *Collector) MeanRecoveryLatency() float64 {
	if c.RecoveredPackets == 0 {
		return 0
	}
	return float64(c.RecoveryLatencySum) / float64(c.RecoveredPackets)
}

// DeliveredFraction returns delivered packets over resolved packets
// (delivered plus dropped): the headline degradation metric. 1.0 when
// nothing was resolved.
func (c *Collector) DeliveredFraction() float64 {
	total := c.TotalDelivered + c.TotalDropped
	if total == 0 {
		return 1
	}
	return float64(c.TotalDelivered) / float64(total)
}

// FlitsByFlow returns a copy of the per-flow delivered flit counts.
func (c *Collector) FlitsByFlow() []int64 {
	out := make([]int64, len(c.DeliveredFlits))
	copy(out, c.DeliveredFlits)
	return out
}
