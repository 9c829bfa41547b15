package network_test

import (
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// severFaults takes the hotspot's ejection port down for a window while
// the backlog sits in its flow queues — delivery timeouts then pull
// queued candidates out from under the index, and their retransmissions
// come back carrying old Created stamps — and kills a transit link for
// good mid-window, so the dead-route sweep removes candidates too.
func severFaults(g *topology.Graph) network.FaultConfig {
	eject := g.Path(noc.NodeID(g.Nodes-1), traffic.HotspotNode, 0)
	return network.FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: int(eject[len(eject)-1].Out), From: 3_000, Until: 6_000},
			{Kind: noc.FaultLinkPermanent, Port: int(g.Path(0, noc.NodeID(g.Nodes-1), 0)[0].Out), From: 4_000},
		},
		RetryTimeout: 500,
		MaxRetries:   6,
	}
}

// TestFlowQueuesMechanicallyEquivalent pins the per-flow-queue round to
// the flat scan it replaced: arbitrating over flow-queue heads is
// bit-identical to bidding every waiter. Every topology runs the paper's
// two adversarial workloads, a saturated hotspot, a tornado, a
// closed-loop hotspot and a faulted hotspot (candidates withdrawn by
// timeouts and by a dead route, retransmissions filed behind younger
// packets) with the queues on and off and must produce the same
// fingerprint — and on every cell that piles a backlog onto one port
// the queue round must have run, and only when on.
func TestFlowQueuesMechanicallyEquivalent(t *testing.T) {
	defer network.SetFlowQueues(true)
	nodes := topology.ColumnNodes
	cells := []verdictCell{
		{"workload1", true, openCell(traffic.Workload1(nodes, 8_000), nil)},
		{"workload2", true, openCell(traffic.Workload2(nodes, 8_000), nil)},
		{"hotspot", true, openCell(traffic.Hotspot(nodes, 0.12).WithStop(2_000), nil)},
		// Tornado spreads its load: on the express topologies no port's
		// backlog passes flowQueueMin, so the flat scan keeps those rounds.
		{"tornado", false, openCell(traffic.Tornado(nodes, 0.12).WithStop(8_000), nil)},
		{"closed-hotspot", true, closedHotspotCell},
		{"faulted", true, openCell(traffic.Hotspot(nodes, 0.03).WithStop(8_000), severFaults)},
	}
	for _, kind := range topology.Kinds() {
		for _, cell := range cells {
			t.Run(kind.String()+"/"+cell.name, func(t *testing.T) {
				run := func(queues bool) (string, uint64) {
					network.SetFlowQueues(queues)
					n, extra := cell.run(t, kind, qos.PerFlowQueue)
					rounds, _ := n.FlowQueueRounds()
					return cellFingerprint(n, extra), rounds
				}
				flat, none := run(false)
				queued, rounds := run(true)
				if none != 0 {
					t.Errorf("flow queues disabled, yet %d rounds ran over them", none)
				}
				if flat != queued {
					t.Errorf("flow queues changed results (%d rounds):\nflat scan: %s\nqueues:    %s", rounds, flat, queued)
				}
				if cell.saturated && rounds == 0 {
					t.Error("saturated cell ran no round over the flow queues: the comparison is vacuous")
				}
			})
		}
	}
}
