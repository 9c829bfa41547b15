package workload

import (
	"context"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// closedFingerprint captures every observable of a finished closed-loop
// run: the engine's delivery fingerprint plus the controller's round-trip
// ledger.
type closedFingerprint struct {
	engine    string
	issued    int64
	completed int64
	perClient []int64
	rttP99    int64
}

func closedFP(n *network.Network, ct *Controller) closedFingerprint {
	fp := closedFingerprint{
		engine:    Fingerprint(n.Stats(), n.Now()),
		issued:    ct.Issued,
		completed: ct.Completed,
		rttP99:    ct.RT.Latencies.Percentile(99),
	}
	fp.perClient = append(fp.perClient, ct.RT.Completed...)
	return fp
}

func equalClosedFP(a, b closedFingerprint) bool {
	if a.engine != b.engine || a.issued != b.issued || a.completed != b.completed ||
		a.rttP99 != b.rttP99 || len(a.perClient) != len(b.perClient) {
		return false
	}
	for i := range a.perClient {
		if a.perClient[i] != b.perClient[i] {
			return false
		}
	}
	return true
}

// TestClosedLoopIdleSkipEquivalence pins the tentpole's skip contract:
// client wake-ups are first-class events, so idle fast-forwarding is
// mechanical for closed-loop runs too — bit-identical fingerprints across
// every topology and QoS mode, through warmup/measure plus a drain.
func TestClosedLoopIdleSkipEquivalence(t *testing.T) {
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			t.Run(kind.String()+"/"+mode.String(), func(t *testing.T) {
				run := func(disable bool) closedFingerprint {
					n, ct := closedCell(t, kind, mode,
						ClientConfig{Outstanding: 4, ThinkMean: 120, StopIssuing: 9_000, Seed: 17}, 31, disable)
					n.WarmupAndMeasure(2_000, 5_000)
					if _, drained := n.RunUntilDrained(200_000); !drained {
						t.Fatal("did not drain")
					}
					return closedFP(n, ct)
				}
				ticked, skipped := run(true), run(false)
				if ticked.completed == 0 {
					t.Fatal("test needs completed round trips to be meaningful")
				}
				if !equalClosedFP(ticked, skipped) {
					t.Errorf("skipping changed closed-loop results:\nticked:  %+v\nskipped: %+v", ticked, skipped)
				}
			})
		}
	}
}

// TestClosedLoopWorkerCountDeterminism runs a closed-loop sweep grid
// through the parallel runner at several worker counts and requires
// bit-identical per-cell fingerprints: controllers are per-cell state
// attached via Cell.Setup, so parallel fan-out cannot perturb them.
func TestClosedLoopWorkerCountDeterminism(t *testing.T) {
	buildCells := func() []runner.Cell {
		var cells []runner.Cell
		for _, kind := range []topology.Kind{topology.MeshX1, topology.MECS} {
			for _, mode := range []qos.Mode{qos.PVC, qos.NoQoS} {
				for _, seed := range []uint64{1, 2} {
					w := ClientWorkload("closed", topology.ColumnNodes)
					qcfg := qos.DefaultConfig(w.TotalFlows())
					qcfg.Mode = mode
					cells = append(cells, runner.Cell{
						Config: network.Config{Kind: kind, QoS: qcfg, Workload: w, Seed: seed},
						Warmup: 1_000, Measure: 6_000,
						Setup: func(n *network.Network) any {
							ct, err := NewController(n, ClientConfig{Outstanding: 3, ThinkMean: 40, Seed: seed})
							if err != nil {
								panic(err)
							}
							return ct
						},
					})
				}
			}
		}
		return cells
	}
	fingerprints := func(workers int) []closedFingerprint {
		res := runner.RunCellsCtx(context.Background(), buildCells(), runner.Options{Workers: workers, Retries: 1})
		out := make([]closedFingerprint, len(res))
		for i, r := range res {
			ct := r.Aux.(*Controller)
			out[i] = closedFingerprint{
				engine:    Fingerprint(r.Stats, r.End),
				issued:    ct.Issued,
				completed: ct.Completed,
				rttP99:    ct.RT.Latencies.Percentile(99),
			}
			out[i].perClient = append(out[i].perClient, ct.RT.Completed...)
		}
		return out
	}
	base := fingerprints(1)
	for _, workers := range []int{2, 4} {
		got := fingerprints(workers)
		for i := range base {
			if !equalClosedFP(base[i], got[i]) {
				t.Errorf("cell %d: workers=%d diverged from sequential:\nseq: %+v\npar: %+v",
					i, workers, base[i], got[i])
			}
		}
	}
	if base[0].completed == 0 {
		t.Fatal("test needs completed round trips to be meaningful")
	}
}

// TestOpenLoopRecordReplayFingerprint pins the trace layer's headline
// contract: recording an open-loop run and replaying the captured trace
// reproduces the delivery fingerprint exactly — generation order, packet
// IDs and every arbitration tie-break coincide.
func TestOpenLoopRecordReplayFingerprint(t *testing.T) {
	for _, tc := range []struct {
		kind topology.Kind
		mode qos.Mode
		rate float64
	}{
		{topology.MeshX1, qos.PVC, 0.05},
		{topology.MECS, qos.NoQoS, 0.08},
		{topology.DPS, qos.PerFlowQueue, 0.04},
	} {
		t.Run(tc.kind.String()+"/"+tc.mode.String(), func(t *testing.T) {
			w := traffic.UniformRandom(topology.ColumnNodes, tc.rate)
			qcfg := qos.DefaultConfig(w.TotalFlows())
			qcfg.Mode = tc.mode
			cfg := network.Config{Kind: tc.kind, QoS: qcfg, Workload: w, Seed: 23}

			rec := &Recorder{}
			n := network.MustNew(cfg)
			rec.Attach(n)
			n.WarmupAndMeasure(2_000, 8_000)
			want := Fingerprint(n.Stats(), n.Now())
			if rec.Len() == 0 {
				t.Fatal("recorder captured nothing")
			}

			trace := rec.Trace(TraceHeader{
				Nodes: topology.ColumnNodes, Topology: tc.kind.String(), QoS: tc.mode.String(),
				Seed: 23, Warmup: 2_000, Measure: 8_000,
			})
			// Round-trip through the binary encoding to prove the on-disk
			// form carries the full contract, not just the in-memory one.
			decoded, err := DecodeTrace(trace.Encode())
			if err != nil {
				t.Fatal(err)
			}
			rcfg, warmup, measure, err := decoded.Cell("replay")
			if err != nil {
				t.Fatal(err)
			}
			for _, disable := range []bool{false, true} {
				rcfg.DisableIdleSkip = disable
				rn := network.MustNew(rcfg)
				rn.WarmupAndMeasure(warmup, measure)
				if got := Fingerprint(rn.Stats(), rn.Now()); got != want {
					t.Errorf("skip=%v: replay fingerprint %s != recorded %s", !disable, got, want)
				}
			}
		})
	}
}

// TestReplayRerecordIsIdentity pins replay's own determinism: re-recording
// a replayed run captures the identical record stream.
func TestReplayRerecordIsIdentity(t *testing.T) {
	w := traffic.Tornado(topology.ColumnNodes, 0.06)
	cfg := network.Config{Kind: topology.MeshX2, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 5}
	rec := &Recorder{}
	n := network.MustNew(cfg)
	rec.Attach(n)
	n.Run(6_000)
	trace := rec.Trace(TraceHeader{Nodes: topology.ColumnNodes, Topology: "mesh_x2", QoS: "pvc", Seed: 5})

	_, rw, err := DecodeReplay(trace.Encode(), "replay")
	if err != nil {
		t.Fatal(err)
	}
	rec2 := &Recorder{}
	rn := network.MustNew(network.Config{Kind: topology.MeshX2, QoS: qos.DefaultConfig(rw.TotalFlows()), Workload: rw, Seed: 5})
	rec2.Attach(rn)
	rn.Run(6_000)
	if rec2.Len() != rec.Len() {
		t.Fatalf("re-record captured %d records, original %d", rec2.Len(), rec.Len())
	}
	for i := range rec.records {
		if rec.records[i] != rec2.records[i] {
			t.Fatalf("record %d diverged: %+v vs %+v", i, rec.records[i], rec2.records[i])
		}
	}
}

// TestClosedLoopRecordReplayDrains pins that a captured closed-loop run
// replays as a well-formed open-loop workload: same generation count,
// and the replay drains completely.
func TestClosedLoopRecordReplayDrains(t *testing.T) {
	n, ct := closedCell(t, topology.MECS, qos.PVC,
		ClientConfig{Outstanding: 2, ThinkMean: 30, StopIssuing: 5_000, Seed: 3}, 8, false)
	rec := &Recorder{}
	// The controller owns the delivery hook; the recorder owns the gen
	// hook — they compose.
	rec.Attach(n)
	if _, drained := n.RunUntilDrained(200_000); !drained {
		t.Fatal("closed-loop run did not drain")
	}
	if int64(rec.Len()) != ct.Issued+ct.Completed {
		t.Fatalf("captured %d records, want issued %d + replies %d", rec.Len(), ct.Issued, ct.Completed)
	}
	trace := rec.Trace(TraceHeader{Nodes: topology.ColumnNodes, Topology: "mecs", QoS: "pvc", Seed: 8})
	_, rw, err := DecodeReplay(trace.Encode(), "closed-replay")
	if err != nil {
		t.Fatal(err)
	}
	rn := network.MustNew(network.Config{Kind: topology.MECS, QoS: qos.DefaultConfig(rw.TotalFlows()), Workload: rw, Seed: 8})
	if _, drained := rn.RunUntilDrained(200_000); !drained {
		t.Fatal("replayed closed-loop trace did not drain")
	}
	if got, want := rn.Stats().TotalDelivered, n.Stats().TotalDelivered; got != want {
		t.Errorf("replay delivered %d packets, recorded run %d", got, want)
	}
}
