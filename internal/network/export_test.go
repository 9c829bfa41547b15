package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/traffic"
)

// Test-only windows onto the engine for the external test package (which
// can import internal/workload without an import cycle).

// UseReferenceRounds makes every allocation round of this network run
// referenceRound instead of arbitrate and its fast paths. Call it before
// the first Step.
func (n *Network) UseReferenceRounds() { n.refRound = n.referenceRound }

// Frames returns how many PVC frame boundaries (counter flushes and quota
// refills) have fired. Zero outside PVC mode.
func (n *Network) Frames() int { return int(n.frameCount) }

// InFlight returns the number of packets injected but not yet delivered
// (or awaiting retransmission).
func (n *Network) InFlight() int { return n.inFlight }

// MeasureStart is WarmupAndMeasure's warmup/measure boundary, for callers
// that advance a network in chunks.
func (n *Network) MeasureStart() { n.measureStart() }

// BurstyWorkload is the mixed bursty/smooth bit-reversal workload of the
// pattern tests.
func BurstyWorkload(t *testing.T) traffic.Workload { return burstyWorkload(t) }

// VerdictSkips reports how many allocation rounds were answered from a
// port's blocked-verdict memo since the last Reset.
func (n *Network) VerdictSkips() uint64 { return n.verdictSkips }

// BlockedRoundAnswers reports how often roundBlocked answered "nobody can
// be granted" and "somebody still can" since the last Reset.
func (n *Network) BlockedRoundAnswers() (nobody, somebody uint64) {
	return n.roundsBlocked, n.roundsHopeful
}

// FlowQueueRounds reports how many allocation rounds ran over flow-queue
// heads, and how many heads they compared, since the last Reset.
func (n *Network) FlowQueueRounds() (rounds, heads uint64) {
	if n.mode == qos.PerFlowQueue {
		for _, fq := range n.flowQs[:len(n.ports)] {
			rounds += fq.rounds
			heads += fq.heads
		}
	}
	return rounds, heads
}

// OverflowCensus counts how often scheduling left the wheels' direct path
// since the last Reset: records spilled to and drained from the overflow
// heaps of the two long wheels, and events fired from the late list.
type OverflowCensus struct {
	EventSpills, EventDrains     uint64
	ArrivalSpills, ArrivalDrains uint64
	LateFires                    uint64
}

func (n *Network) OverflowCensus() OverflowCensus {
	return OverflowCensus{
		EventSpills: n.events.spills, EventDrains: n.events.drains,
		ArrivalSpills: n.arrivals.spills, ArrivalDrains: n.arrivals.drains,
		LateFires: n.events.lateFires,
	}
}
