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

// The long wheels file over 99 % of what the engine schedules directly,
// so the suites above them almost never reach the overflow heaps, their
// ordered drain or the late list. These cells do, on purpose: every one
// schedules past the long horizon or at distance zero, and must come out
// the same ticked, skipped and chunked, under an armed auditor.

// overflowCell builds one network of the cell (skip on or off) and
// returns it with a function that reports the driver's own observables
// once the run is over.
type overflowCell struct {
	name  string
	build func(t *testing.T, disableSkip bool) (*network.Network, func() string)
	// want says which cold paths the cell exists to exercise.
	want func(c network.OverflowCensus) bool
}

func overflowNet(kind topology.Kind, w traffic.Workload, seed uint64, disableSkip bool, edit func(*network.Config)) *network.Network {
	return goldenNet(kind, qos.PVC, w, seed, func(cfg *network.Config) {
		cfg.DisableIdleSkip, cfg.AuditEvery = disableSkip, 512
		if edit != nil {
			edit(cfg)
		}
	})
}

func noExtra() string { return "" }

var overflowCells = []overflowCell{
	{
		// Every ACK and NACK rides 5000 cycles: past the dense wheel, past
		// the long one.
		name: "oversized-ack-delay",
		build: func(t *testing.T, disableSkip bool) (*network.Network, func() string) {
			w := traffic.Workload1(topology.ColumnNodes, 6_000)
			return overflowNet(topology.MECS, w, 21, disableSkip, func(cfg *network.Config) {
				cfg.QoS.AckDelay = 5_000
				cfg.QoS.MarginClasses = 8
			}), noExtra
		},
		want: func(c network.OverflowCensus) bool { return c.EventSpills > 0 && c.EventDrains > 0 },
	},
	{
		// A zero-delay ACK network: the hotspot's own terminal streams at
		// the hotspot, so its ACKs travel no distance and fire inline, the
		// cycle the delivery does. (No standard workload preempts a packet
		// at its own source router, so the zero-distance NACK that would
		// take the late list stays out of reach; replies take it below.)
		name: "zero-ack-delay",
		build: func(t *testing.T, disableSkip bool) (*network.Network, func() string) {
			w := traffic.Workload1(topology.ColumnNodes, 6_000)
			return overflowNet(topology.MECS, w, 21, disableSkip, func(cfg *network.Config) {
				cfg.QoS.AckDelay = 0
				cfg.QoS.MarginClasses = 8
			}), noExtra
		},
		want: func(c network.OverflowCensus) bool { return true },
	},
	{
		// Retry timers back off 1500, 3000, 6000: the third leaves the
		// long wheel. The stalled router keeps what it holds timing out.
		name: "retry-backoff",
		build: func(t *testing.T, disableSkip bool) (*network.Network, func() string) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.02).WithStop(20_000)
			return overflowNet(topology.MeshX1, w, 11, disableSkip, func(cfg *network.Config) {
				cfg.Faults = network.FaultConfig{
					Windows:      []noc.FaultWindow{{Kind: noc.FaultRouterStall, Node: 3, From: 3_000, Until: 15_000}},
					RetryTimeout: 1_500,
					MaxRetries:   8,
				}
				cfg.WatchdogCycles = 100_000
			}), noExtra
		},
		want: func(c network.OverflowCensus) bool { return c.EventSpills > 10 && c.EventDrains > 10 },
	},
	{
		// Clients think for 10 000 cycles on average, and a server's reply
		// is scheduled for the cycle the request is delivered in.
		name: "long-think-time",
		build: func(t *testing.T, disableSkip bool) (*network.Network, func() string) {
			w := workload.ClientWorkload("closed", topology.ColumnNodes)
			n := overflowNet(topology.DPS, w, 13, disableSkip, nil)
			ct, err := workload.NewController(n, workload.ClientConfig{
				Outstanding: 2, ThinkMean: 10_000, StopIssuing: 120_000, Seed: 17,
			})
			if err != nil {
				t.Fatal(err)
			}
			return n, func() string {
				return fmt.Sprintf("issued=%d completed=%d rtt99=%d", ct.Issued, ct.Completed, ct.RT.Latencies.Percentile(99))
			}
		},
		want: func(c network.OverflowCensus) bool {
			return c.EventSpills > 0 && c.EventDrains > 0 && c.LateFires > 0
		},
	},
	{
		// One packet per source every 2000 cycles: a third of the gaps
		// exceed the long horizon.
		name: "rare-arrivals",
		build: func(t *testing.T, disableSkip bool) (*network.Network, func() string) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.0005).WithStop(150_000)
			return overflowNet(topology.MeshX2, w, 7, disableSkip, nil), noExtra
		},
		want: func(c network.OverflowCensus) bool { return c.ArrivalSpills > 0 && c.ArrivalDrains > 0 },
	},
}

func TestOverflowPathsMechanicallyEquivalent(t *testing.T) {
	const warmup, measure = 2_000, 158_000
	finish := func(t *testing.T, n *network.Network, extra func() string) string {
		if _, drained := n.RunUntilDrained(2_000_000); !drained {
			t.Fatalf("did not drain (in flight %d)", n.InFlight())
		}
		if err := n.AuditInvariants(); err != nil {
			t.Errorf("post-drain audit: %v", err)
		}
		return cellFingerprint(n, extra())
	}
	for _, cell := range overflowCells {
		t.Run(cell.name, func(t *testing.T) {
			ticked, extra := cell.build(t, true)
			ticked.WarmupAndMeasure(warmup, measure)
			want := finish(t, ticked, extra)

			skipped, extra := cell.build(t, false)
			skipped.WarmupAndMeasure(warmup, measure)
			if got := finish(t, skipped, extra); got != want {
				t.Errorf("skipping changed results:\nticked:  %s\nskipped: %s", want, got)
			}
			if c := skipped.OverflowCensus(); !cell.want(c) {
				t.Errorf("the cell did not reach the paths it exists for: %+v", c)
			}
			if a, b := ticked.OverflowCensus(), skipped.OverflowCensus(); a != b {
				t.Errorf("ticked and skipped runs took different paths: %+v vs %+v", a, b)
			}

			// 4099 is coprime to the long wheel's size, so chunk ends land
			// on every slot; 1 ends a Run at every cycle.
			for _, quantum := range []int{1, 4099} {
				if quantum == 1 && testing.Short() {
					continue
				}
				n, extra := cell.build(t, false)
				n.Stats().Pause()
				for left := warmup + measure; left > 0; {
					if left == measure {
						n.Stats().Reset(n.Now())
					}
					q := min(quantum, left)
					if left > measure {
						q = min(q, left-measure)
					}
					n.Run(q)
					left -= q
				}
				if got := finish(t, n, extra); got != want {
					t.Errorf("quantum %d diverged from a single Run:\nchunked:   %s\nunchunked: %s", quantum, got, want)
				}
			}
		})
	}
}
