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

// goldenCells are the cross-commit matrix, run in every topology and QoS
// mode: every scheduling path the engine has — dense stepping, saturation
// with preemption, long idle gaps with a stop cycle and a drain tail,
// fault edges with retry timers, the watchdog and a probe, closed-loop
// think timers, and trace replay.
var goldenCells = []cell{
	{name: "uniform", golden: true, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		n := r.net(t, c.config(traffic.UniformRandom(topology.ColumnNodes, 0.04), 3))
		o := newOrderHash()
		o.attach(n, true)
		r.warmupAndMeasure(n, 2_000, 8_000)
		return n, o.String()
	}},
	{name: "workload1", golden: true, guard: saturated, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		n := r.net(t, c.config(traffic.Workload1(topology.ColumnNodes, 6_000), 5))
		o := newOrderHash()
		o.attach(n, true)
		r.warmupAndMeasure(n, 1_000, 4_000)
		drain(t, n)
		return n, o.String()
	}},
	{name: "lowrate", golden: true, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		n := r.net(t, c.config(traffic.UniformRandom(topology.ColumnNodes, 0.002).WithStop(60_000), 7))
		o := newOrderHash()
		o.attach(n, true)
		r.warmupAndMeasure(n, 10_000, 40_000)
		drain(t, n)
		return n, o.String()
	}},
	{name: "faulted", golden: true, probed: true, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		cfg := c.config(traffic.UniformRandom(topology.ColumnNodes, 0.02).WithStop(12_000), 11)
		cfg.Faults = stallFaults(topology.NewGraph(c.kind, topology.ColumnNodes))
		cfg.Faults.RetryTimeout = 400
		cfg.WatchdogCycles = 50_000
		n := r.net(t, cfg)
		o := newOrderHash()
		o.attach(n, true)
		n.SetProbe(700, func(now sim.Cycle) {
			o.put(2, uint64(now), uint64(n.InFlight()), uint64(n.FillVCOccupancy(nil)))
		})
		r.warmupAndMeasure(n, 2_000, 8_000)
		drain(t, n)
		return n, o.String()
	}},
	{name: "closed-hotspot", golden: true, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		n := r.net(t, c.config(workload.ClientWorkload("closed", topology.ColumnNodes), 13))
		ct, err := workload.NewController(n, workload.ClientConfig{
			Outstanding: 4, ThinkMean: 150, Pattern: traffic.HotspotTraffic(nil),
			StopIssuing: 20_000, Seed: 17,
		})
		if err != nil {
			t.Fatal(err)
		}
		o := newOrderHash()
		o.attach(n, false)
		r.warmupAndMeasure(n, 4_000, 12_000)
		drain(t, n)
		return n, fmt.Sprintf("issued=%d completed=%d rtt99=%d %s",
			ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99), o)
	}},
	{name: "replay", golden: true, run: func(t *testing.T, c cell, r row) (*network.Network, string) {
		rec := &workload.Recorder{}
		src := r.net(t, c.config(traffic.Tornado(topology.ColumnNodes, 0.03), 23))
		rec.Attach(src)
		r.warmupAndMeasure(src, 2_000, 6_000)
		trace := rec.Trace(workload.TraceHeader{
			Nodes: topology.ColumnNodes, Topology: c.kind.String(), QoS: c.mode.String(),
			Seed: 23, Warmup: 2_000, Measure: 6_000,
		})
		cfg, warmup, measure, err := trace.Cell("replay")
		if err != nil {
			t.Fatal(err)
		}
		n := r.net(t, cfg)
		o := newOrderHash()
		o.attach(n, true)
		r.warmupAndMeasure(n, warmup, measure)
		drain(t, n)
		return n, fmt.Sprintf("recorded=%s %s", workload.Fingerprint(src.Stats(), src.Now()), o)
	}},
}

// TestEngineFingerprintsDeterministicAcrossCommits is the contract table's
// identity row over the golden cells, compared with a file written by an
// earlier commit. Every other row runs both sides inside one binary, so
// an engine change that moves both sides the same way passes them all;
// this one cannot. A change that is meant to alter simulated results
// regenerates the file with `go test -run AcrossCommits ./internal/network
// -update` and says so.
func TestEngineFingerprintsDeterministicAcrossCommits(t *testing.T) {
	var got strings.Builder
	p := pass(t)
	for _, c := range catalogue {
		if c.golden {
			fmt.Fprintf(&got, "%s %s\n", c.path(), outcomeOf(t, p, c, identity).fp)
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
