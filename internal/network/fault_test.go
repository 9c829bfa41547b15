package network

import (
	"runtime"
	"strings"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// faultCfg builds a finite uniform-random cell with the given fault
// schedule and recovery knobs.
func faultCfg(kind topology.Kind, mode qos.Mode, faults FaultConfig, seed uint64) Config {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.02).WithStop(12_000)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.Mode = mode
	return Config{Kind: kind, QoS: cfg, Workload: w, Seed: seed, Faults: faults}
}

// drainFingerprint runs a cell to completion and captures every
// observable, including the recovery counters.
func drainFingerprint(t *testing.T, n *Network, maxCycles int) skipFingerprint {
	t.Helper()
	n.WarmupAndMeasure(0, 12_000)
	if _, drained := n.RunUntilDrained(maxCycles); !drained {
		t.Fatalf("did not drain (in flight %d, events %d)", n.inFlight, n.events.Len())
	}
	fp := fingerprint(n)
	fp.flitsByFlow = n.Stats().FlitsByFlow()
	return fp
}

// transitPort returns an output port on the replica-0 route between two
// distant nodes — a link that carries real traffic in every topology.
func transitPort(g *topology.Graph) int {
	legs := g.Path(0, noc.NodeID(g.Nodes-1), 0)
	return int(legs[0].Out)
}

// hotspotEjection returns the ejection port into the hotspot node — the
// most contended link of a hotspot workload, so a fault window on it is
// guaranteed to catch transfers mid-flight.
func hotspotEjection(g *topology.Graph) int {
	legs := g.Path(noc.NodeID(g.Nodes-1), traffic.HotspotNode, 0)
	return int(legs[len(legs)-1].Out)
}

// hotspotFaultCfg builds a finite hotspot cell with the given fault
// schedule — the aggregated traffic keeps the faulted ejection port busy.
func hotspotFaultCfg(kind topology.Kind, mode qos.Mode, faults FaultConfig, seed uint64) Config {
	w := traffic.Hotspot(topology.ColumnNodes, 0.02).WithStop(12_000)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.Mode = mode
	return Config{Kind: kind, QoS: cfg, Workload: w, Seed: seed, Faults: faults}
}

// TestFaultedRunsAreReproducible pins run-to-run determinism with faults
// and recovery in play: two engines built from the same configuration
// produce identical observables, and a dirty engine Reset to the faulted
// configuration matches a fresh build.
func TestFaultedRunsAreReproducible(t *testing.T) {
	g := topology.NewGraph(topology.MECS, topology.ColumnNodes)
	faults := FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: hotspotEjection(g), From: 2_000, Until: 9_000},
		},
		RetryTimeout: 400,
		MaxRetries:   8,
	}
	cfg := hotspotFaultCfg(topology.MECS, qos.PVC, faults, 7)
	want := drainFingerprint(t, MustNew(cfg), 600_000)
	if want.faultDrops == 0 {
		t.Fatal("fault schedule never struck in-flight traffic; the test exercises nothing")
	}
	again := drainFingerprint(t, MustNew(cfg), 600_000)
	if !equalFingerprints(want, again) {
		t.Errorf("identical faulted runs diverged:\nfirst:  %+v\nsecond: %+v", want, again)
	}
	dirty := MustNew(hotspotFaultCfg(topology.MeshX2, qos.NoQoS, FaultConfig{}, 5))
	dirty.Run(4_000) // mid-simulation state to be cleared
	if err := dirty.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	reset := drainFingerprint(t, dirty, 600_000)
	if !equalFingerprints(want, reset) {
		t.Errorf("reset faulted run diverged from fresh build:\nfresh: %+v\nreset: %+v", want, reset)
	}
}

// TestTransientFaultRecovery pins the headline recovery contract: a
// multi-thousand-cycle link outage with end-to-end retransmission
// enabled recovers at least 99.9% delivery in every QoS mode. The RTO
// doubling makes the cumulative backoff (500+1000+...) outlast the
// outage, so some retransmission of every lost packet lands after the
// heal.
func TestTransientFaultRecovery(t *testing.T) {
	for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
		t.Run(mode.String(), func(t *testing.T) {
			g := topology.NewGraph(topology.MeshX1, topology.ColumnNodes)
			faults := FaultConfig{
				Windows: []noc.FaultWindow{
					{Kind: noc.FaultLinkTransient, Port: hotspotEjection(g), From: 2_000, Until: 8_000},
				},
				RetryTimeout: 500,
				MaxRetries:   8,
			}
			n := MustNew(hotspotFaultCfg(topology.MeshX1, mode, faults, 11))
			fp := drainFingerprint(t, n, 1_000_000)
			st := n.Stats()
			if st.FaultDrops == 0 {
				t.Fatal("outage never caught in-flight traffic; pick a busier port")
			}
			if st.RecoveredPackets == 0 {
				t.Error("no packet recovered through retransmission")
			}
			if frac := st.DeliveredFraction(); frac < 0.999 {
				t.Errorf("delivered fraction %.5f < 0.999 (delivered %d, dropped %d, fault kills %d, retries %d)",
					frac, st.TotalDelivered, st.TotalDropped, st.FaultDrops, st.TotalRetries)
			}
			if fp.retries == 0 {
				t.Error("recovery happened without any timeout retry being counted")
			}
		})
	}
}

// TestPermanentFaultReroute pins deterministic rerouting: on a
// replicated mesh, permanently killing a replica-0 channel link diverts
// its traffic onto the surviving replicas and every packet still
// delivers — zero drops once the in-flight casualties of the strike
// itself are retransmitted.
func TestPermanentFaultReroute(t *testing.T) {
	g := topology.NewGraph(topology.MeshX2, topology.ColumnNodes)
	dead := transitPort(g)
	if alt := int(g.Path(0, noc.NodeID(g.Nodes-1), 1)[0].Out); alt == dead {
		t.Fatalf("replicas share first-leg port %d; test assumes disjoint channels", dead)
	}
	faults := FaultConfig{
		Windows:      []noc.FaultWindow{{Kind: noc.FaultLinkPermanent, Port: dead, From: 3_000}},
		RetryTimeout: 500,
		MaxRetries:   8,
	}
	n := MustNew(faultCfg(topology.MeshX2, qos.PVC, faults, 23))
	drainFingerprint(t, n, 1_000_000)
	st := n.Stats()
	if st.TotalDropped != 0 {
		t.Errorf("%d packets dropped despite a live replica around the dead link", st.TotalDropped)
	}
	if st.DeliveredFraction() != 1 {
		t.Errorf("delivered fraction %.5f with a full reroute available", st.DeliveredFraction())
	}
}

// TestUnroutableDestinationDrops pins the no-recovery-possible path: on
// the unreplicated mesh a permanently dead link severs some
// source-destination pairs for good. Their packets must be dropped —
// counted, with the retry budget respected — and the network must still
// drain rather than wedge on unroutable backlog.
func TestUnroutableDestinationDrops(t *testing.T) {
	g := topology.NewGraph(topology.MeshX1, topology.ColumnNodes)
	faults := FaultConfig{
		Windows:      []noc.FaultWindow{{Kind: noc.FaultLinkPermanent, Port: transitPort(g), From: 2_000}},
		RetryTimeout: 300,
		MaxRetries:   2,
	}
	n := MustNew(faultCfg(topology.MeshX1, qos.PVC, faults, 29))
	fp := drainFingerprint(t, n, 1_000_000)
	st := n.Stats()
	if st.TotalDropped == 0 {
		t.Error("severed routes produced no drops")
	}
	if frac := st.DeliveredFraction(); frac >= 1 {
		t.Errorf("delivered fraction %.5f; expected real losses", frac)
	}
	if fp.clock == 0 {
		t.Error("clock did not advance")
	}
	// With recovery disabled entirely the run must still drain: kills
	// become immediate drops.
	faults.RetryTimeout, faults.MaxRetries = 0, 0
	n2 := MustNew(faultCfg(topology.MeshX1, qos.PVC, faults, 29))
	drainFingerprint(t, n2, 1_000_000)
	if n2.Stats().TotalDropped == 0 {
		t.Error("no drops with recovery disabled")
	}
}

// TestWatchdogCatchesDeadlock pins the self-checking contract: a
// permanent router stall wedges the column, and the watchdog must catch
// it within its window, panicking with a structured report that names
// the stalled node, the stuck candidates, and carries a non-empty repro
// trace.
func TestWatchdogCatchesDeadlock(t *testing.T) {
	const stalled = 3
	cfg := faultCfg(topology.MeshX1, qos.PVC, FaultConfig{
		Windows: []noc.FaultWindow{{Kind: noc.FaultRouterStall, Node: stalled, From: 1_000}},
	}, 13)
	cfg.WatchdogCycles = 2_000
	n := MustNew(cfg)
	var caught *WatchdogError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("stalled column ran to completion without tripping the watchdog")
			}
			we, ok := r.(*WatchdogError)
			if !ok {
				panic(r)
			}
			caught = we
		}()
		n.Run(200_000)
	}()
	r := &caught.Report
	if r.At-r.LastProgress < cfg.WatchdogCycles {
		t.Errorf("tripped after %d cycles without progress, window is %d", r.At-r.LastProgress, cfg.WatchdogCycles)
	}
	if r.Waiters == 0 || len(r.Ports) == 0 {
		t.Errorf("report shows no stuck candidates: %+v", r)
	}
	found := false
	for _, node := range r.StalledNodes {
		if node == stalled {
			found = true
		}
	}
	if !found {
		t.Errorf("report misses stalled node %d: %v", stalled, r.StalledNodes)
	}
	if s := r.String(); !strings.Contains(s, "stuck at cycle") {
		t.Errorf("dump rendering incomplete:\n%s", s)
	}
	if caught.Error() == "" {
		t.Error("empty error string")
	}
}

// TestWatchdogQuietOnHealthyRuns pins the false-positive bound: an armed
// watchdog must survive long legitimate idle stretches (a finite
// workload draining, then nothing) and bursty resumption without
// tripping, and the run must stay bit-identical to an unarmed one on
// every delivery observable.
func TestWatchdogQuietOnHealthyRuns(t *testing.T) {
	run := func(window sim.Cycle) skipFingerprint {
		cfg := faultCfg(topology.MECS, qos.PVC, FaultConfig{}, 31)
		cfg.WatchdogCycles = window
		n := MustNew(cfg)
		n.WarmupAndMeasure(0, 12_000)
		n.Run(100_000) // long idle tail under the armed timer
		fp := fingerprint(n)
		fp.flitsByFlow = n.Stats().FlitsByFlow()
		return fp
	}
	armed, unarmed := run(1_000), run(0)
	if !equalFingerprints(armed, unarmed) {
		t.Errorf("armed watchdog perturbed a healthy run:\narmed:   %+v\nunarmed: %+v", armed, unarmed)
	}
}

// TestArmedWatchdogHoldsNoStream pins what arming the watchdog costs in
// memory: nothing that grows with the run. A uniform mesh_x1 run of
// 200 000 cycles must allocate (runtime TotalAlloc) under 4 KB more with
// the watchdog armed than disarmed. It measures 280 B more (2 560 against
// 2 280). An engine that logged every generation for a repro trace
// while armed allocated 5.2 MB more on the same run.
func TestArmedWatchdogHoldsNoStream(t *testing.T) {
	run := func(window sim.Cycle) uint64 {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.04)
		n := MustNew(Config{
			Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 3,
			WatchdogCycles: window,
		})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		n.Run(200_000)
		runtime.ReadMemStats(&after)
		if n.Stats().TotalDelivered == 0 {
			t.Fatal("run delivered nothing; test is vacuous")
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	disarmed, armed := run(0), run(5_000)
	t.Logf("TotalAlloc over the run: %d B disarmed, %d B armed", disarmed, armed)
	if armed > disarmed+4_096 {
		t.Errorf("armed watchdog allocates %d B more than disarmed, want under 4096", armed-disarmed)
	}
}

// TestAuditCleanOnAdversarialRun pins the auditor against the most
// state-churning configuration the engine has: PVC preemption under
// hotspot overload with transient faults and retransmission timers in
// play, audited at a tight interval throughout. Any invariant the churn
// breaks panics the run.
func TestAuditCleanOnAdversarialRun(t *testing.T) {
	for _, kind := range []topology.Kind{topology.MeshX1, topology.MECS, topology.DPS} {
		t.Run(kind.String(), func(t *testing.T) {
			g := topology.NewGraph(kind, topology.ColumnNodes)
			w := traffic.Hotspot(topology.ColumnNodes, 0.06).WithStop(8_000)
			cfg := qos.DefaultConfig(w.TotalFlows())
			cfg.Mode = qos.PVC
			n := MustNew(Config{
				Kind: kind, QoS: cfg, Workload: w, Seed: 3,
				Faults: FaultConfig{
					Windows: []noc.FaultWindow{
						{Kind: noc.FaultLinkTransient, Port: transitPort(g), From: 1_500, Until: 4_000},
					},
					RetryTimeout: 400,
					MaxRetries:   6,
				},
				AuditEvery: 64,
			})
			if _, drained := n.RunUntilDrained(2_000_000); !drained {
				t.Fatalf("did not drain (in flight %d)", n.inFlight)
			}
			if err := n.AuditInvariants(); err != nil {
				t.Errorf("post-drain audit: %v", err)
			}
			if n.verdictSkips == 0 {
				t.Error("no round was answered from a verdict memo: the blocked-verdict audit checked nothing")
			}
		})
	}
}

// TestFaultConfigValidation pins the rejection of malformed schedules.
func TestFaultConfigValidation(t *testing.T) {
	base := faultCfg(topology.MeshX1, qos.PVC, FaultConfig{}, 1)
	cases := []struct {
		name   string
		faults FaultConfig
		wd     sim.Cycle
		audit  sim.Cycle
	}{
		{name: "negative retry timeout", faults: FaultConfig{RetryTimeout: -1}},
		{name: "negative max retries", faults: FaultConfig{MaxRetries: -2}},
		{name: "unknown kind", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultKind(9), From: 1, Until: 2}}}},
		{name: "zero-length window", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultLinkTransient, From: 5, Until: 5}}}},
		{name: "inverted window", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultRouterStall, From: 9, Until: 4}}}},
		{name: "unbounded transient", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultLinkTransient, From: 5}}}},
		{name: "bounded permanent", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultLinkPermanent, From: 5, Until: 9}}}},
		{name: "port out of range", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultLinkTransient, Port: 10_000, From: 1, Until: 2}}}},
		{name: "node out of range", faults: FaultConfig{Windows: []noc.FaultWindow{{Kind: noc.FaultRouterStall, Node: 99, From: 1, Until: 2}}}},
		{name: "negative watchdog", wd: -5},
		{name: "negative audit interval", audit: -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.Faults = tc.faults
			cfg.WatchdogCycles = tc.wd
			cfg.AuditEvery = tc.audit
			if _, err := New(cfg); err == nil {
				t.Error("malformed configuration accepted")
			}
		})
	}
}
