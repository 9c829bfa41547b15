package workload

import (
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// closedCell builds a closed-loop cell: the all-nodes client workload on
// the given topology and QoS mode, with a controller attached.
func closedCell(t *testing.T, kind topology.Kind, mode qos.Mode, cfg ClientConfig, seed uint64, disableSkip bool) (*network.Network, *Controller) {
	t.Helper()
	w := ClientWorkload("closed", topology.ColumnNodes)
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = mode
	n, err := network.New(network.Config{
		Kind: kind, QoS: qcfg, Workload: w, Seed: seed,
		DisableIdleSkip: disableSkip,
	})
	if err != nil {
		t.Fatal(err)
	}
	ct, err := NewController(n, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return n, ct
}

// TestClosedLoopRoundTrips pins the basic closed-loop contract: requests
// go out, every one is answered, windows never exceed their bound, and
// round-trip latencies are recorded.
func TestClosedLoopRoundTrips(t *testing.T) {
	n, ct := closedCell(t, topology.MeshX2, qos.PVC,
		ClientConfig{Outstanding: 4, ThinkMean: 20, Seed: 7}, 1, false)
	n.Run(50_000)
	if ct.Issued == 0 {
		t.Fatal("no requests issued")
	}
	if ct.Completed == 0 {
		t.Fatal("no round trips completed")
	}
	if got := outstanding(ct); got > 4*len(ct.clients) {
		t.Errorf("outstanding %d exceeds aggregate window %d", got, 4*len(ct.clients))
	}
	if ct.RT.TotalCompleted() == 0 || ct.RT.MeanRTT() <= 0 {
		t.Errorf("round-trip stats empty: completed %d mean %.1f", ct.RT.TotalCompleted(), ct.RT.MeanRTT())
	}
	// Request and reply populations must match one-for-one on the wire:
	// every delivered flow is a terminal flow.
	for f, pkts := range n.Stats().DeliveredPackets {
		if pkts > 0 && f%topology.InjectorsPerNode != 0 {
			t.Errorf("non-terminal flow %d delivered %d packets in a closed-loop run", f, pkts)
		}
	}
}

// outstanding is the total of outstanding requests across all clients.
func outstanding(ct *Controller) int {
	total := 0
	for i := range ct.clients {
		total += int(ct.clients[i].outstanding)
	}
	return total
}

// TestClosedLoopDrainsInFlightToZero pins in-flight/drain accounting under
// the delivery hook: once issuing stops, every outstanding round trip
// completes and the engine drains (RunUntilDrained reports a drain only
// with no packet in flight) — with idle skipping on and off.
func TestClosedLoopDrainsInFlightToZero(t *testing.T) {
	for _, disable := range []bool{false, true} {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			n, ct := closedCell(t, topology.MECS, mode,
				ClientConfig{Outstanding: 3, ThinkMean: 15, StopIssuing: 8_000, Seed: 3}, 9, disable)
			if _, drained := n.RunUntilDrained(300_000); !drained {
				t.Fatalf("mode %v skip=%v: closed loop did not drain (outstanding %d)",
					mode, !disable, outstanding(ct))
			}
			if got := outstanding(ct); got != 0 {
				t.Errorf("mode %v skip=%v: %d outstanding after drain, want 0", mode, !disable, got)
			}
			if ct.Issued != ct.Completed {
				t.Errorf("mode %v skip=%v: issued %d != completed %d after drain", mode, !disable, ct.Issued, ct.Completed)
			}
			if ct.Issued == 0 {
				t.Errorf("mode %v skip=%v: nothing issued", mode, !disable)
			}
		}
	}
}

// TestClosedLoopWindowBound pins the window semantics: with think time
// disabled and a single-node hotspot server, a client never holds more
// than Outstanding requests in flight.
func TestClosedLoopWindowBound(t *testing.T) {
	n, ct := closedCell(t, topology.MeshX1, qos.PVC,
		ClientConfig{Outstanding: 2, Pattern: traffic.HotspotTraffic(nil), Seed: 5}, 2, false)
	for i := 0; i < 20_000; i++ {
		n.Step()
		for ci := range ct.clients {
			if o := ct.clients[ci].outstanding; o < 0 || o > 2 {
				t.Fatalf("cycle %d: client %d outstanding %d outside [0,2]", i, ci, o)
			}
		}
	}
	if ct.Completed == 0 {
		t.Fatal("no round trips completed")
	}
}

// TestClientWorkloadNeedsTerminals pins the attachment validation: a
// workload missing a node's terminal injector cannot host replies.
func TestClientWorkloadNeedsTerminals(t *testing.T) {
	w := ClientWorkload("partial", topology.ColumnNodes)
	w.Specs = w.Specs[:4] // drop nodes 4..7
	n := network.MustNew(network.Config{
		Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 1,
	})
	if _, err := NewController(n, ClientConfig{Outstanding: 1}); err == nil {
		t.Fatal("controller attached to a workload with missing terminal injectors")
	}
}

// TestScheduleInjectionOpenLoopUnused pins the zero-cost contract from the
// network side: a run that never installs hooks or schedules injections is
// bit-identical to the pre-subsystem engine — proxied here by comparing an
// open-loop run against one with a no-op delivery hook installed.
func TestScheduleInjectionOpenLoopUnused(t *testing.T) {
	run := func(hook bool) (int64, int64, sim.Cycle) {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.05)
		n := network.MustNew(network.Config{
			Kind: topology.DPS, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 11,
		})
		if hook {
			n.SetDeliveryHook(func(network.Delivery) {})
		}
		n.WarmupAndMeasure(2_000, 10_000)
		st := n.Stats()
		return st.TotalDelivered, st.TotalLatency, st.LastDelivery
	}
	d0, l0, e0 := run(false)
	d1, l1, e1 := run(true)
	if d0 != d1 || l0 != l1 || e0 != e1 {
		t.Errorf("no-op delivery hook changed results: %d/%d/%d vs %d/%d/%d", d0, l0, e0, d1, l1, e1)
	}
}

// TestDeliveryHookSeesKinds pins the hook payload: closed-loop requests
// and replies arrive marked with their kinds and correlated parents.
func TestDeliveryHookSeesKinds(t *testing.T) {
	n, ct := closedCell(t, topology.MeshX2, qos.PVC,
		ClientConfig{Outstanding: 1, ThinkMean: 10, Seed: 13}, 4, false)
	var requests, replies int
	prev := n.Now()
	// Wrap the controller's hook: observe, then forward to it.
	inner := ct.onDelivery
	n.SetDeliveryHook(func(d network.Delivery) {
		if d.At < prev {
			t.Errorf("delivery hook saw time run backwards: %d after %d", d.At, prev)
		}
		prev = d.At
		switch d.Kind {
		case noc.KindRequest:
			requests++
			if d.Class != noc.ClassRequest {
				t.Errorf("request delivered with class %v", d.Class)
			}
		case noc.KindReply:
			replies++
			if d.Class != noc.ClassReply {
				t.Errorf("reply delivered with class %v", d.Class)
			}
			if sim.Cycle(d.Parent) > d.At {
				t.Errorf("reply parent cycle %d after delivery %d", d.Parent, d.At)
			}
		default:
			t.Errorf("open-kind packet in a closed-loop run")
		}
		inner(d)
	})
	n.Run(20_000)
	if requests == 0 || replies == 0 {
		t.Fatalf("saw %d requests, %d replies", requests, replies)
	}
}
