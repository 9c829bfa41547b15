package network_test

import (
	"fmt"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// verdictCell is one cell of the verdict-memo equivalence matrix: build
// and finish a run, returning the network and any driver-side observables
// to fold into the fingerprint.
type verdictCell struct {
	name string
	// saturated cells block constantly, so the memo must fire on them in
	// the modes that can block (PVC and no-QoS; per-flow queues never do),
	// and under per-flow queueing their backlog must reach the flow queues.
	saturated bool
	run       func(t *testing.T, kind topology.Kind, mode qos.Mode) (*network.Network, string)
}

// stallFaults is the schedule of TestFaultedRunSkipEquivalence: a
// transient link fault, then a router stall.
func stallFaults(g *topology.Graph) network.FaultConfig {
	return network.FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: int(g.Path(0, noc.NodeID(g.Nodes-1), 0)[0].Out), From: 3_000, Until: 6_000},
			{Kind: noc.FaultRouterStall, Node: 3, From: 7_000, Until: 8_000},
		},
		RetryTimeout: 500,
		MaxRetries:   6,
	}
}

// openCell runs an open-loop workload to its stop cycle and drains it,
// under the fault schedule faults builds for the cell's graph (nil: none).
func openCell(w traffic.Workload, faults func(*topology.Graph) network.FaultConfig) func(*testing.T, topology.Kind, qos.Mode) (*network.Network, string) {
	return openCellTuned(w, faults, func(*qos.Config) {})
}

// openCellTuned is openCell with the default QoS configuration edited by
// tune.
func openCellTuned(w traffic.Workload, faults func(*topology.Graph) network.FaultConfig, tune func(*qos.Config)) func(*testing.T, topology.Kind, qos.Mode) (*network.Network, string) {
	return func(t *testing.T, kind topology.Kind, mode qos.Mode) (*network.Network, string) {
		qcfg := qos.DefaultConfig(w.TotalFlows())
		qcfg.Mode = mode
		tune(&qcfg)
		cfg := network.Config{Kind: kind, QoS: qcfg, Workload: w, Seed: 41}
		if faults != nil {
			cfg.Faults = faults(topology.NewGraph(kind, topology.ColumnNodes))
		}
		n := network.MustNew(cfg)
		n.WarmupAndMeasure(2_000, 6_000)
		if _, drained := n.RunUntilDrained(2_000_000); !drained {
			t.Fatalf("did not drain (in flight %d)", n.InFlight())
		}
		return n, ""
	}
}

// closedHotspotCell runs write-shaped closed-loop clients against the
// hotspot node: every client's window parks on the same ejection port.
func closedHotspotCell(t *testing.T, kind topology.Kind, mode qos.Mode) (*network.Network, string) {
	w := workload.ClientWorkload("closed", topology.ColumnNodes)
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = mode
	n := network.MustNew(network.Config{Kind: kind, QoS: qcfg, Workload: w, Seed: 31})
	ct, err := workload.NewController(n, workload.ClientConfig{
		Outstanding: 8, ThinkMean: 4, Pattern: traffic.HotspotTraffic(nil),
		RequestFlits: 4, ReplyFlits: 1, StopIssuing: 9_000, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	n.WarmupAndMeasure(2_000, 6_000)
	if _, drained := n.RunUntilDrained(2_000_000); !drained {
		t.Fatalf("did not drain (in flight %d)", n.InFlight())
	}
	if ct.Completed == 0 {
		t.Fatal("closed-loop cell completed no round trips")
	}
	return n, fmt.Sprintf("issued=%d completed=%d rtt99=%d", ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99))
}

// verdictCells is the matrix the blocked-round equivalence tests run per
// topology and QoS mode: the paper's two adversarial workloads, a saturated
// hotspot, a tornado, a faulted cell and a closed-loop hotspot.
func verdictCells() []verdictCell {
	nodes := topology.ColumnNodes
	return []verdictCell{
		{"workload1", true, openCell(traffic.Workload1(nodes, 8_000), nil)},
		{"workload2", true, openCell(traffic.Workload2(nodes, 8_000), nil)},
		{"hotspot", true, openCell(traffic.Hotspot(nodes, 0.12).WithStop(2_000), nil)},
		{"tornado", false, openCell(traffic.Tornado(nodes, 0.12).WithStop(8_000), nil)},
		{"faulted", false, openCell(traffic.UniformRandom(nodes, 0.02).WithStop(12_000), stallFaults)},
		{"closed-hotspot", false, closedHotspotCell},
	}
}

// cellFingerprint folds every observable of a finished cell, and the
// driver's own, into one comparable string.
func cellFingerprint(n *network.Network, extra string) string {
	st := n.Stats()
	return fmt.Sprintf("%s frames=%d retries=%d drops=%d faultdrops=%d recovered=%d %s",
		workload.Fingerprint(st, n.Now()), n.Frames(), st.TotalRetries,
		st.TotalDropped, st.FaultDrops, st.RecoveredPackets, extra)
}

// TestVerdictMemoMechanicallyEquivalent pins the port-epoch contract: an
// allocation round or inversion scan answered from a port's verdict memo
// is bit-identical to executing it. Every topology x QoS mode runs the
// paper's two adversarial workloads, a saturated hotspot, a tornado, a
// faulted cell and a closed-loop hotspot with the skips on and off and
// must produce the same fingerprint — and the saturated cells must
// actually have skipped rounds, so the comparison cannot pass vacuously.
func TestVerdictMemoMechanicallyEquivalent(t *testing.T) {
	defer network.SetVerdictMemo(true)
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			for _, cell := range verdictCells() {
				t.Run(kind.String()+"/"+mode.String()+"/"+cell.name, func(t *testing.T) {
					run := func(memo bool) (string, uint64) {
						network.SetVerdictMemo(memo)
						n, extra := cell.run(t, kind, mode)
						return cellFingerprint(n, extra), n.VerdictSkips()
					}
					executed, none := run(false)
					skipped, skips := run(true)
					if none != 0 {
						t.Errorf("memo disabled, yet %d rounds were skipped", none)
					}
					if executed != skipped {
						t.Errorf("verdict memo changed results (%d rounds skipped):\nexecuted: %s\nskipped:  %s", skips, executed, skipped)
					}
					if cell.saturated && mode != qos.PerFlowQueue && skips == 0 {
						t.Error("saturated cell skipped no round: the memo is not being exercised")
					}
				})
			}
		}
	}
}
