package network

import (
	"math/bits"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// resetCfg builds one cell configuration of the reuse matrix.
func resetCfg(kind topology.Kind, mode qos.Mode, rate float64, seed uint64) Config {
	w := traffic.UniformRandom(topology.ColumnNodes, rate)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.Mode = mode
	return Config{Kind: kind, QoS: cfg, Workload: w, Seed: seed}
}

// runFingerprint measures one warmup+measure cell plus a preemption-prone
// tail and captures every observable.
func runFingerprint(n *Network) skipFingerprint {
	n.WarmupAndMeasure(2_000, 6_000)
	fp := fingerprint(n)
	fp.flitsByFlow = n.Stats().FlitsByFlow()
	return fp
}

// TestResetDropsLiveBlockedVerdicts resets a network while its ports hold
// live blocked-arbitration verdicts (Workload 1, mid-run) into a
// different mode and topology — one that fits the old port array and one
// that forces its reallocation — and requires a fresh build's fingerprint:
// a verdict or a buffer's feeder pointer surviving Reset would skip rounds
// that must run.
func TestResetDropsLiveBlockedVerdicts(t *testing.T) {
	w1 := traffic.Workload1(topology.ColumnNodes, 0)
	adv := Config{Kind: topology.MeshX2, QoS: qos.DefaultConfig(w1.TotalFlows()), Workload: w1, Seed: 21}
	for _, kind := range []topology.Kind{topology.MeshX1, topology.DPS} {
		for _, mode := range []qos.Mode{qos.PVC, qos.NoQoS} {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				w := traffic.Hotspot(topology.ColumnNodes, 0.05)
				qcfg := qos.DefaultConfig(w.TotalFlows())
				qcfg.Mode = mode
				target := Config{Kind: kind, QoS: qcfg, Workload: w, Seed: 9}
				want := runFingerprint(MustNew(target))

				reused := MustNew(adv)
				reused.Run(5_000)
				live := 0
				for guard := 0; live == 0 && guard < 1_000; guard++ {
					reused.Step()
					for i := range reused.ports {
						if p := &reused.ports[i]; p.blockedAt == p.epoch {
							live++
						}
					}
				}
				if live == 0 {
					t.Fatal("test needs a live blocked verdict at Reset time")
				}
				if err := reused.Reset(target); err != nil {
					t.Fatal(err)
				}
				for i := range reused.ports {
					if p := &reused.ports[i]; p.epoch != 1 || p.scanAt != 0 || p.blockedAt != 0 {
						t.Fatalf("port %d memo survived Reset: epoch %d scanAt %d blockedAt %d", i, p.epoch, p.scanAt, p.blockedAt)
					}
				}
				for i := range reused.bufs {
					if reused.bufs[i].feed != &reused.ports[reused.graph.Feeder[i]].epoch {
						t.Fatalf("buffer %d does not point at its feeder port's epoch after Reset", i)
					}
				}
				if got := runFingerprint(reused); !equalFingerprints(want, got) {
					t.Errorf("reset over live verdicts diverged:\nfresh: %+v\nreset: %+v", want, got)
				}
			})
		}
	}
}

// TestResetRebuildsFlowQueues walks one engine from a live per-flow-queue
// backlog into PVC, into no-QoS and back into per-flow queueing on a
// taller column — 96 flows where there were 64, so the bitmap gains a
// word, and more ports — then down again over that column's backlog. The
// modes in between leave the index alone; every Reset into per-flow
// queueing must re-seat it for the new port and flow counts, and every
// run must match a fresh build's.
func TestResetRebuildsFlowQueues(t *testing.T) {
	reused := MustNew(flowQueueCfg(topology.MeshX2, traffic.Workload1(topology.ColumnNodes, 0), 21))
	reused.Run(5_000)
	stages := []struct {
		name  string
		mode  qos.Mode
		nodes int
	}{
		{"pvc", qos.PVC, 8},
		{"no-qos", qos.NoQoS, 8},
		{"per-flow-queue/taller", qos.PerFlowQueue, 12},
		{"per-flow-queue/shorter", qos.PerFlowQueue, 4},
	}
	for _, st := range stages {
		t.Run(st.name, func(t *testing.T) {
			if filedCandidates(reused) == 0 {
				t.Fatal("test needs a filed backlog in the index at Reset time")
			}
			target := flowQueueCfg(topology.MeshX2, traffic.Hotspot(st.nodes, 0.05), 9)
			target.QoS.Mode = st.mode
			want := runFingerprint(MustNew(target))
			if err := reused.Reset(target); err != nil {
				t.Fatal(err)
			}
			if st.mode == qos.PerFlowQueue {
				flows := target.Workload.TotalFlows()
				if len(reused.flowQs) < len(reused.ports) {
					t.Fatalf("%d ports, %d flow-queue indexes", len(reused.ports), len(reused.flowQs))
				}
				for i, fq := range reused.flowQs[:len(reused.ports)] {
					if fq.seen != 0 || fq.rounds != 0 || fq.heads != 0 || len(fq.flows) != flows || len(fq.active) != (flows+63)/64 {
						t.Fatalf("port %d index not re-seated for %d flows: seen %d rounds %d heads %d, %d queues, %d bitmap words",
							i, flows, fq.seen, fq.rounds, fq.heads, len(fq.flows), len(fq.active))
					}
				}
				if filed := filedCandidates(reused); filed != 0 {
					t.Fatalf("%d candidates or active bits survived Reset in the flow queues", filed)
				}
			}
			if got := runFingerprint(reused); !equalFingerprints(want, got) {
				t.Errorf("reset diverged from fresh build:\nfresh: %+v\nreset: %+v", want, got)
			}
		})
	}
}

// filedCandidates counts what the flow queues of a network's ports hold:
// queued entries plus set bitmap bits.
func filedCandidates(n *Network) (filed int) {
	for _, fq := range n.flowQs[:min(len(n.flowQs), len(n.ports))] {
		for f := range fq.flows {
			filed += len(fq.flows[f].items) - fq.flows[f].head
		}
		for _, w := range fq.active {
			filed += bits.OnesCount64(w)
		}
	}
	return filed
}

// TestResetRejectsInvalidConfig pins that a failed Reset reports the same
// validation errors New does.
func TestResetRejectsInvalidConfig(t *testing.T) {
	n := MustNew(resetCfg(topology.MeshX1, qos.PVC, 0.05, 1))
	bad := resetCfg(topology.MeshX1, qos.PVC, 0.05, 1)
	bad.QoS.Rates = bad.QoS.Rates[:4] // flow population mismatch
	if err := n.Reset(bad); err == nil {
		t.Fatal("Reset accepted a mismatched flow population")
	}
}

// TestResetClearsFaultState pins the robustness-subsystem reuse
// contract: a network torn down mid-outage — fault windows active, retry
// timers pending, watchdog armed, auditor pacing — Reset to a fault-free
// configuration is bit-identical to a fresh build, with no bookkeeping
// event or bitmap bit leaking across.
func TestResetClearsFaultState(t *testing.T) {
	g := topology.NewGraph(topology.MeshX1, topology.ColumnNodes)
	legs := g.Path(0, noc.NodeID(g.Nodes-1), 0)
	faulted := resetCfg(topology.MeshX1, qos.PVC, 0.05, 19)
	faulted.Faults = FaultConfig{
		Windows: []noc.FaultWindow{
			{Kind: noc.FaultLinkTransient, Port: int(legs[0].Out), From: 1_000, Until: 40_000},
			{Kind: noc.FaultRouterStall, Node: 2, From: 2_000, Until: 50_000},
		},
		RetryTimeout: 400,
		MaxRetries:   6,
	}
	faulted.WatchdogCycles = 60_000
	faulted.AuditEvery = 256

	dirty := MustNew(faulted)
	dirty.Run(5_000) // mid-outage: down bits set, timers live
	if dirty.sysEvents == 0 {
		t.Fatal("faulted run left no robustness state to clear; test is vacuous")
	}

	clean := resetCfg(topology.MECS, qos.PVC, 0.05, 17)
	if err := dirty.Reset(clean); err != nil {
		t.Fatal(err)
	}
	if dirty.fltOn || dirty.fltHasDead || dirty.sysEvents != 0 ||
		dirty.retryTimeout != 0 || dirty.wdWindow != 0 ||
		dirty.auditEvery != envAuditEvery {
		t.Errorf("Reset left robustness state armed: fltOn=%v dead=%v sys=%d rto=%d wd=%d audit=%d",
			dirty.fltOn, dirty.fltHasDead, dirty.sysEvents, dirty.retryTimeout,
			dirty.wdWindow, dirty.auditEvery)
	}
	for _, bm := range [][]uint64{dirty.fltDown, dirty.fltDead, dirty.fltStall} {
		for _, w := range bm {
			if w != 0 {
				t.Fatalf("Reset left fault bitmap bits set: %v %v %v", dirty.fltDown, dirty.fltDead, dirty.fltStall)
			}
		}
	}
	got := runFingerprint(dirty)
	want := runFingerprint(MustNew(clean))
	if !equalFingerprints(want, got) {
		t.Errorf("reset out of a faulted run diverged from fresh build:\nfresh: %+v\nreset: %+v", want, got)
	}
}
