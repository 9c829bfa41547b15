package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// These tests pin down the engine's safety properties under preemption
// pressure: who may be discarded, what the ACK protocol conserves, and
// what the frame machinery resets. They run the adversarial workloads —
// the preemption-heavy regime — and observe every discard through the
// engine's preemption hook.

func adversarialNet(t *testing.T, kind topology.Kind, seed uint64) *Network {
	t.Helper()
	w := traffic.Workload1(topology.ColumnNodes, 0)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.MarginClasses = 8 // eager enough to exercise preemption heavily
	n, err := New(Config{Kind: kind, QoS: cfg, Workload: w, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestVictimsAreNeverRateCompliant(t *testing.T) {
	// The reserved quota's guarantee: a rate-compliant packet is never
	// preempted, anywhere, ever.
	for _, kind := range topology.Kinds() {
		n := adversarialNet(t, kind, 7)
		violations := 0
		preemptions := 0
		n.preemptHook = func(_ *inBuf, victim pktH) {
			preemptions++
			if n.pktAt(victim).Reserved {
				violations++
			}
		}
		n.Run(120_000)
		if violations > 0 {
			t.Errorf("%v: %d rate-compliant packets preempted", kind, violations)
		}
		if kind == topology.MeshX1 && preemptions == 0 {
			t.Errorf("%v: adversarial workload produced no preemptions to audit", kind)
		}
	}
}

func TestVictimsAreAlwaysInTheNetwork(t *testing.T) {
	// A packet still sitting at its source has consumed nothing worth
	// replaying; discards must hit network-resident packets only.
	n := adversarialNet(t, topology.MeshX1, 11)
	n.preemptHook = func(_ *inBuf, victim pktH) {
		switch n.pktAt(victim).state {
		case stAtSource:
			t.Error("preempted a packet still at its source")
		case stDelivered, stDead:
			t.Errorf("preempted a packet in state %d", n.pktAt(victim).state)
		}
	}
	n.Run(120_000)
}

func TestEveryPreemptionIsEventuallyRedelivered(t *testing.T) {
	// Conservation through the retransmission protocol: with injection
	// stopped, every preempted packet must still drain to its
	// destination (NACK -> replay -> delivery).
	w := traffic.Workload1(topology.ColumnNodes, 30_000)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.MarginClasses = 8
	n := MustNew(Config{Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: 13})
	if _, drained := n.RunUntilDrained(400_000); !drained {
		t.Fatalf("network did not drain; %d in flight", n.inFlight)
	}
	st := n.Stats()
	if st.PreemptionEvents == 0 {
		t.Fatal("test needs preemptions to be meaningful")
	}
	if st.InjectedPackets-st.Retransmits != st.TotalDelivered {
		t.Errorf("conservation broken: injected %d - retransmits %d != delivered %d",
			st.InjectedPackets, st.Retransmits, st.TotalDelivered)
	}
	// All window slots returned.
	for i := range n.srcs {
		if s := &n.srcs[i]; s.window != 0 {
			t.Errorf("flow %d still holds %d window slots after drain", s.spec.Flow, s.window)
		}
	}
}

func TestRetransmittedPacketsKeepCreationTime(t *testing.T) {
	// End-to-end latency accounts for wasted attempts: a replayed
	// packet's latency is measured from its original creation.
	w := traffic.Workload1(topology.ColumnNodes, 20_000)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.MarginClasses = 4
	n := MustNew(Config{Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: 17})
	// Handles recorded by a hook stay resolvable for the rest of the run:
	// installing the hook suppresses slot recycling.
	var preempted []pktH
	n.preemptHook = func(_ *inBuf, victim pktH) { preempted = append(preempted, victim) }
	n.RunUntilDrained(400_000)
	if len(preempted) == 0 {
		t.Skip("no preemptions at this seed/margin")
	}
	for _, h := range preempted {
		if n.pktAt(h).Retransmits == 0 {
			t.Error("preempted packet did not record a retransmission")
		}
	}
}

func TestFrameFlushResetsPriorities(t *testing.T) {
	w := traffic.Hotspot(topology.ColumnNodes, 0.05)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.FrameCycles = 10_000
	n := MustNew(Config{Kind: topology.MECS, QoS: cfg, Workload: w, Seed: 5})
	n.Run(9_999)
	// Just before the flush, the hot terminal port has accumulated
	// consumption, and with it priority, for many flows.
	toHot := n.graph.Path(1, 0, 0)
	hot := n.ports[toHot[len(toHot)-1].Out]
	nonZero := 0
	for f := 0; f < 64; f++ {
		if hot.table.Priorities()[f] > 0 {
			nonZero++
		}
	}
	if nonZero == 0 {
		t.Fatal("no consumption recorded before the frame boundary")
	}
	n.Run(2) // cross the boundary
	// Two cycles of service after the flush stay below one priority
	// quantum, so every flow is back in the top class.
	for f := 0; f < 64; f++ {
		if p := hot.table.Priorities()[f]; p != 0 {
			t.Fatalf("flow %d retained priority %d of pre-flush consumption", f, p)
		}
	}
	if n.frameCount == 0 {
		t.Fatal("frame counter did not advance")
	}
}

func TestPerFlowQueueModeNeverBlocksOnBuffers(t *testing.T) {
	// The idealized reference grows VC pools on demand: offered load is
	// absorbed without discards even under the adversarial pattern.
	w := traffic.Workload1(topology.ColumnNodes, 20_000)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.Mode = qos.PerFlowQueue
	n := MustNew(Config{Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: 19})
	if _, drained := n.RunUntilDrained(200_000); !drained {
		t.Fatal("per-flow-queue network did not drain")
	}
	if n.Stats().PreemptionEvents != 0 || n.Stats().Retransmits != 0 {
		t.Error("ideal reference discarded packets")
	}
}

func TestModesAgreeOnDeliveredWork(t *testing.T) {
	// For a finite workload all three policies must deliver the same
	// packet population (same seed, same generation process), whatever
	// the ordering.
	delivered := map[qos.Mode]int64{}
	for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.06).WithStop(10_000)
		cfg := qos.DefaultConfig(w.TotalFlows())
		cfg.Mode = mode
		n := MustNew(Config{Kind: topology.DPS, QoS: cfg, Workload: w, Seed: 23})
		if _, drained := n.RunUntilDrained(200_000); !drained {
			t.Fatalf("%v: did not drain", mode)
		}
		delivered[mode] = n.Stats().TotalDelivered
	}
	if delivered[qos.PVC] != delivered[qos.PerFlowQueue] || delivered[qos.PVC] != delivered[qos.NoQoS] {
		t.Errorf("modes delivered different work: %v", delivered)
	}
}

func TestQuantumOverrideChangesArbitration(t *testing.T) {
	// Sanity for the ablation plumbing: an extreme quantum visibly
	// degrades DPS hotspot fairness versus the default.
	run := func(quantum int) float64 {
		w := traffic.Hotspot(topology.ColumnNodes, 0.05)
		cfg := qos.DefaultConfig(w.TotalFlows())
		cfg.QuantumFlits = quantum
		n := MustNew(Config{Kind: topology.DPS, QoS: cfg, Workload: w, Seed: 29})
		n.WarmupAndMeasure(3_000, 20_000)
		byFlow := n.Stats().FlitsByFlow()
		var lo, hi int64 = 1 << 62, 0
		for _, v := range byFlow {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return float64(hi-lo) / float64(hi)
	}
	if fine, coarse := run(8), run(1024); coarse <= fine {
		t.Errorf("coarse quantum spread %.3f should exceed fine %.3f", coarse, fine)
	}
}

func TestInvalidQuantumRejected(t *testing.T) {
	w := traffic.Hotspot(topology.ColumnNodes, 0.05)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.QuantumFlits = 12 // not a power of two
	if _, err := New(Config{Kind: topology.DPS, QoS: cfg, Workload: w, Seed: 1}); err == nil {
		t.Fatal("non-power-of-two quantum accepted")
	}
	cfg.QuantumFlits = 0 // default
	cfg.MarginClasses = -1
	if _, err := New(Config{Kind: topology.DPS, QoS: cfg, Workload: w, Seed: 1}); err == nil {
		t.Fatal("negative margin accepted")
	}
}

func TestDisabledQuotaMarksNothingCompliant(t *testing.T) {
	w := traffic.Hotspot(topology.ColumnNodes, 0.05)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.DisableReservedQuota = true
	n := MustNew(Config{Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: 3})
	n.Run(20_000)
	for bi := range n.bufs {
		b := &n.bufs[bi]
		for i := int32(0); i < b.nvc; i++ {
			if h := b.owner[i]; h != noPkt && n.pktAt(h).Reserved {
				t.Fatalf("compliant packet found in %s VC %d with quota disabled", b.spec.Name, i)
			}
		}
	}
}

func TestDrainLeavesNoResidualState(t *testing.T) {
	// After a full drain: no waiters registered anywhere, no events
	// pending, no packets in flight — across every topology and the
	// preemption-heavy margin.
	for _, kind := range topology.Kinds() {
		w := traffic.Workload1(topology.ColumnNodes, 15_000)
		cfg := qos.DefaultConfig(w.TotalFlows())
		cfg.MarginClasses = 8
		n := MustNew(Config{Kind: kind, QoS: cfg, Workload: w, Seed: 31})
		if _, drained := n.RunUntilDrained(300_000); !drained {
			t.Fatalf("%v: did not drain", kind)
		}
		n.Run(64) // let trailing releases fire
		for _, p := range n.ports {
			if len(p.waiters) != 0 {
				t.Errorf("%v: port %s has %d residual waiters", kind, p.spec.Name, len(p.waiters))
			}
		}
		if n.events.Len() != 0 {
			t.Errorf("%v: %d residual events", kind, n.events.Len())
		}
		if n.inFlight != 0 {
			t.Errorf("%v: %d residual in-flight packets", kind, n.inFlight)
		}
	}
}

func TestAckDelayAffectsWindowTurnaround(t *testing.T) {
	// A huge ACK delay with a tiny window throttles throughput: the
	// window slot is held until the ACK returns.
	run := func(ack sim.Cycle) int64 {
		w := traffic.Workload{Nodes: topology.ColumnNodes, Specs: []traffic.Spec{{
			Flow: traffic.FlowOf(7, 0), Node: 7, Rate: 0.9,
			RequestFraction: 0.5,
			Dest:            traffic.FixedDest(0),
		}}}
		cfg := qos.DefaultConfig(w.TotalFlows())
		cfg.WindowPackets = 1
		cfg.AckDelay = ack
		n := MustNew(Config{Kind: topology.MECS, QoS: cfg, Workload: w, Seed: 37})
		n.WarmupAndMeasure(2_000, 20_000)
		return n.Stats().TotalDelivered
	}
	fast, slow := run(2), run(200)
	if slow >= fast {
		t.Errorf("ACK delay 200 delivered %d >= delay 2's %d", slow, fast)
	}
}
