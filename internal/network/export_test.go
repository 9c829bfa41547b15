package network

import "tanoq/internal/qos"

// Test-only windows onto the verdict memo and the per-flow queues for the
// external test package (which can import internal/workload without an
// import cycle).

// SetVerdictMemo turns the blocked-round and inversion-scan skips on or
// off process-wide. Callers must not run in parallel with other tests.
func SetVerdictMemo(on bool) { noVerdictMemo = !on }

// VerdictSkips reports how many allocation rounds were answered from a
// port's blocked-verdict memo since the last Reset.
func (n *Network) VerdictSkips() uint64 { return n.verdictSkips }

// SetBlockedShortcut turns roundBlocked's one-pass answer on or off
// process-wide; off, a round whose best candidate was refused tries every
// other one. Callers must not run in parallel with other tests.
func SetBlockedShortcut(on bool) { noBlockedShortcut = !on }

// BlockedRoundAnswers reports how often roundBlocked answered "nobody can
// be granted" and "somebody still can" since the last Reset.
func (n *Network) BlockedRoundAnswers() (nobody, somebody uint64) {
	return n.roundsBlocked, n.roundsHopeful
}

// SetFlowQueues turns the per-flow-queue allocation round on or off
// process-wide; off, that mode's rounds run arbitrate's flat scan.
// Callers must not run in parallel with other tests.
func SetFlowQueues(on bool) { noFlowQueues = !on }

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
