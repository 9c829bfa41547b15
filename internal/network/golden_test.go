package network_test

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this tree")

// orderHash folds the order in which a run generates and delivers packets
// into one digest. workload.Fingerprint sums what was delivered; this pins
// the sequence, which is what a scheduler that reorders same-cycle firing
// would move first.
type orderHash struct{ h hash.Hash64 }

func newOrderHash() *orderHash { return &orderHash{h: fnv.New64a()} }

func (o *orderHash) put(vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		o.h.Write(buf[:])
	}
}

// attach observes every generation, and every delivery too unless a
// workload driver owns the delivery hook.
func (o *orderHash) attach(n *network.Network, deliveries bool) {
	n.SetGenHook(func(r traffic.TraceRecord) {
		o.put(0, uint64(r.At), uint64(r.Flow), uint64(r.Src), uint64(r.Dst), uint64(r.Class))
	})
	if deliveries {
		n.SetDeliveryHook(func(d network.Delivery) {
			o.put(1, d.ID, uint64(d.At), uint64(d.Flow), uint64(d.Injected))
		})
	}
}

func (o *orderHash) String() string { return fmt.Sprintf("order=%016x", o.h.Sum64()) }

// goldenCells is the cross-commit matrix: every scheduling path the
// engine has — dense stepping, saturation with preemption, long idle
// gaps with a stop cycle and a drain tail, fault edges with retry timers,
// the watchdog and a probe, closed-loop think timers, and trace replay.
var goldenCells = []struct {
	name string
	run  func(t *testing.T, kind topology.Kind, mode qos.Mode) string
}{
	{"uniform", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		n := goldenNet(kind, mode, traffic.UniformRandom(topology.ColumnNodes, 0.04), 3, nil)
		o := newOrderHash()
		o.attach(n, true)
		n.WarmupAndMeasure(2_000, 8_000)
		return cellFingerprint(n, o.String())
	}},
	{"workload1", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		n := goldenNet(kind, mode, traffic.Workload1(topology.ColumnNodes, 6_000), 5, nil)
		o := newOrderHash()
		o.attach(n, true)
		n.WarmupAndMeasure(1_000, 4_000)
		goldenDrain(t, n)
		return cellFingerprint(n, o.String())
	}},
	{"lowrate", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		n := goldenNet(kind, mode, traffic.UniformRandom(topology.ColumnNodes, 0.002).WithStop(60_000), 7, nil)
		o := newOrderHash()
		o.attach(n, true)
		n.WarmupAndMeasure(10_000, 40_000)
		goldenDrain(t, n)
		return cellFingerprint(n, o.String())
	}},
	{"faulted", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		n := goldenNet(kind, mode, traffic.UniformRandom(topology.ColumnNodes, 0.02).WithStop(12_000), 11,
			func(cfg *network.Config) {
				cfg.Faults = stallFaults(topology.NewGraph(kind, topology.ColumnNodes))
				cfg.Faults.RetryTimeout = 400
				cfg.WatchdogCycles = 50_000
			})
		o := newOrderHash()
		o.attach(n, true)
		n.SetProbe(700, func(now sim.Cycle) {
			o.put(2, uint64(now), uint64(n.InFlight()), uint64(n.FillVCOccupancy(nil)))
		})
		n.WarmupAndMeasure(2_000, 8_000)
		goldenDrain(t, n)
		return cellFingerprint(n, o.String())
	}},
	{"closed-hotspot", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		n := goldenNet(kind, mode, workload.ClientWorkload("closed", topology.ColumnNodes), 13, nil)
		ct, err := workload.NewController(n, workload.ClientConfig{
			Outstanding: 4, ThinkMean: 150, Pattern: traffic.HotspotTraffic(nil),
			StopIssuing: 20_000, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := newOrderHash()
		o.attach(n, false)
		n.WarmupAndMeasure(4_000, 12_000)
		goldenDrain(t, n)
		return cellFingerprint(n, fmt.Sprintf("issued=%d completed=%d rtt99=%d %s",
			ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99), o))
	}},
	{"replay", func(t *testing.T, kind topology.Kind, mode qos.Mode) string {
		rec := &workload.Recorder{}
		src := goldenNet(kind, mode, traffic.Tornado(topology.ColumnNodes, 0.03), 23, nil)
		rec.Attach(src)
		src.WarmupAndMeasure(2_000, 6_000)
		trace := rec.Trace(workload.TraceHeader{
			Nodes: topology.ColumnNodes, Topology: kind.String(), QoS: mode.String(),
			Seed: 23, Warmup: 2_000, Measure: 6_000,
		})
		cfg, warmup, measure, err := trace.Cell("replay")
		if err != nil {
			t.Fatal(err)
		}
		n := network.MustNew(cfg)
		o := newOrderHash()
		o.attach(n, true)
		n.WarmupAndMeasure(warmup, measure)
		goldenDrain(t, n)
		return cellFingerprint(n, fmt.Sprintf("recorded=%s %s",
			workload.Fingerprint(src.Stats(), src.Now()), o))
	}},
}

func goldenNet(kind topology.Kind, mode qos.Mode, w traffic.Workload, seed uint64, edit func(*network.Config)) *network.Network {
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = mode
	cfg := network.Config{Kind: kind, QoS: qcfg, Workload: w, Seed: seed}
	if edit != nil {
		edit(&cfg)
	}
	return network.MustNew(cfg)
}

func goldenDrain(t *testing.T, n *network.Network) {
	t.Helper()
	if _, drained := n.RunUntilDrained(2_000_000); !drained {
		t.Fatalf("did not drain (in flight %d)", n.InFlight())
	}
}

// TestEngineFingerprintsDeterministicAcrossCommits compares this tree's
// results with a file written by an earlier commit. Every other
// equivalence test runs both sides inside one binary, so an engine change
// that moves both sides the same way passes them all; this one cannot.
// A change that is meant to alter simulated results regenerates the file
// with `go test -run AcrossCommits ./internal/network -update` and says so.
func TestEngineFingerprintsDeterministicAcrossCommits(t *testing.T) {
	var got strings.Builder
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			for _, cell := range goldenCells {
				fmt.Fprintf(&got, "%s/%s/%s %s\n", kind, mode, cell.name, cell.run(t, kind, mode))
			}
		}
	}
	path := filepath.Join("testdata", "fingerprints.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d cells run, golden holds %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("fingerprint moved:\n got: %s\nwant: %s", gotLines[i], wantLines[i])
		}
	}
}
