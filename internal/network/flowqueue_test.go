package network

import (
	"math/bits"
	"strings"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// flowQueueCfg is a per-flow-queue cell of the given workload.
func flowQueueCfg(kind topology.Kind, w traffic.Workload, seed uint64) Config {
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = qos.PerFlowQueue
	return Config{Kind: kind, Nodes: w.Nodes, QoS: qcfg, Workload: w, Seed: seed}
}

// TestFlowQueueRoundComparesOnlyHeads is the count behind the per-flow
// round's cost claim: a round compares one head per flow with candidates
// at the port — counted here from the waiters list, which the round does
// not consult — however deep the backlog behind those heads, and
// Workload 1 and 2 do drive that backlog past ten times the flow count.
func TestFlowQueueRoundComparesOnlyHeads(t *testing.T) {
	nodes := topology.ColumnNodes
	for _, w := range []traffic.Workload{traffic.Workload1(nodes, 0), traffic.Workload2(nodes, 0)} {
		for _, kind := range []topology.Kind{topology.MeshX4, topology.MECS} {
			t.Run(w.Name+"/"+kind.String(), func(t *testing.T) {
				n := MustNew(flowQueueCfg(kind, w, 5))
				seenRounds := make([]uint64, len(n.ports))
				seenHeads := make([]uint64, len(n.ports))
				rounds, deep := 0, 0
				// grant runs once per round, with the winner still registered.
				n.grantHook = func(port *outPort, _ pktH) {
					fq := n.flowQs[port.id]
					if fq.rounds == seenRounds[port.id] {
						return // a shallow port's flat round
					}
					seenRounds[port.id] = fq.rounds
					heads := fq.heads - seenHeads[port.id]
					seenHeads[port.id] = fq.heads
					var flows uint64 // these workloads provision 64 flows
					for _, h := range port.waiters {
						flows |= 1 << uint(n.arena[h].Flow)
					}
					active := bits.OnesCount64(flows)
					if heads != uint64(active) {
						t.Fatalf("cycle %d port %s: round compared %d heads, %d flows have candidates (%d waiters)",
							n.Now(), port.spec.Name, heads, active, len(port.waiters))
					}
					rounds++
					if len(port.waiters) >= 10*active {
						deep++
					}
				}
				n.Run(20_000)
				if deep == 0 {
					t.Fatalf("no round of %d saw a backlog of ten times its active flows: the bound was never under load", rounds)
				}
				t.Logf("%d rounds, %d with backlog >= 10x active flows", rounds, deep)
			})
		}
	}
}

// TestAuditCatchesFlowQueueDrift breaks the flow-queue index of a port
// with a filed backlog in each way the auditor's invariant names — first
// of all the one a removal path that skips withdraw would cause — and
// requires the auditor to report it.
func TestAuditCatchesFlowQueueDrift(t *testing.T) {
	breaks := []struct {
		name, want string
		do         func(n *Network, port *outPort, fq *flowQueues, f noc.FlowID)
	}{
		{"removal without forget", "cursor", func(n *Network, port *outPort, fq *flowQueues, f noc.FlowID) {
			q := &fq.flows[f]
			n.unregister(port, q.items[q.head+1].h)
		}},
		{"queue out of order", "out of order", func(_ *Network, _ *outPort, fq *flowQueues, f noc.FlowID) {
			q := &fq.flows[f]
			q.items[q.head], q.items[q.head+1] = q.items[q.head+1], q.items[q.head]
		}},
		{"entry in another flow's queue", "does not match", func(_ *Network, _ *outPort, fq *flowQueues, f noc.FlowID) {
			q, other := &fq.flows[f], &fq.flows[f+1]
			other.items = append(other.items, q.items[len(q.items)-1])
			q.items = q.items[:len(q.items)-1]
			fq.active[(f+1)>>6] |= 1 << (uint(f+1) & 63)
		}},
		{"filed waiter in no queue", "sits in 0 queues", func(n *Network, port *outPort, _ *flowQueues, _ noc.FlowID) {
			for i := range n.ports {
				if other := &n.ports[i]; other != port && len(other.waiters) > 0 {
					port.waiters[0] = other.waiters[0]
					return
				}
			}
			panic("no second port with candidates")
		}},
		{"stale key", "does not match", func(n *Network, _ *outPort, fq *flowQueues, f noc.FlowID) {
			q := &fq.flows[f]
			n.arena[q.items[len(q.items)-1].h].Created++
		}},
		{"active bit lost", "active bit false", func(_ *Network, _ *outPort, fq *flowQueues, f noc.FlowID) {
			fq.active[f>>6] &^= 1 << (uint(f) & 63)
		}},
		{"active bit past the last flow", "beyond the non-empty queues", func(_ *Network, _ *outPort, fq *flowQueues, _ noc.FlowID) {
			fq.active[len(fq.active)-1] |= 1 << 63
		}},
	}
	for _, b := range breaks {
		t.Run(b.name, func(t *testing.T) {
			// 12 nodes: 96 flows, so the bitmap's last word has spare bits.
			n := MustNew(flowQueueCfg(topology.MeshX1, traffic.Hotspot(12, 0.05), 7))
			n.Run(3_000)
			var port *outPort
			var flow noc.FlowID
			for i, fq := range n.flowQs {
				for f := 0; f+1 < len(fq.flows); f++ {
					if q := &fq.flows[f]; len(q.items)-q.head >= 2 {
						port, flow = &n.ports[i], noc.FlowID(f)
					}
				}
			}
			if port == nil {
				t.Fatal("test needs a flow queue two deep")
			}
			if err := n.AuditInvariants(); err != nil {
				t.Fatalf("audit of the unbroken network: %v", err)
			}
			b.do(n, port, n.flowQs[port.id], flow)
			err := n.AuditInvariants()
			if err == nil || !strings.Contains(err.Error(), b.want) {
				t.Errorf("auditor said %v, want a violation mentioning %q", err, b.want)
			}
		})
	}
}
