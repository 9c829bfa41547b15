package network_test

import (
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// BenchmarkSparseRun is the event-bound counterpart of the Step
// benchmarks, which tick with DisableIdleSkip and so never reach the run
// loop's horizon, a retry timer or a think-time injection. Each
// sub-benchmark is one cell shape of the repository benchmark's
// sparse_events workload driven through Run: a low-rate cell with an idle
// tail, a faulted cell with retry timers and the watchdog armed, and a
// closed-loop cell with think time. ns/cycle is host time per simulated
// cycle (stepped or skipped); overflow-spills/op is how many of an
// iteration's schedules — events and arrivals — missed the long wheels
// and took an overflow heap. It lives in the external test package because
// the closed-loop controller imports this one.
func BenchmarkSparseRun(b *testing.B) {
	const cycles = 220_000
	cells := []struct {
		name  string
		build func(b *testing.B) *network.Network
	}{
		{"idle-tail", func(b *testing.B) *network.Network {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.002).WithStop(40_000)
			return network.MustNew(network.Config{Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 3})
		}},
		{"faulted-retry", func(b *testing.B) *network.Network {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.03)
			return network.MustNew(network.Config{
				Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 3,
				Faults: network.FaultConfig{
					Windows: []noc.FaultWindow{
						{Kind: noc.FaultLinkTransient, Port: 3, From: 60_000, Until: 70_000},
						{Kind: noc.FaultRouterStall, Node: 5, From: 120_000, Until: 128_000},
					},
					RetryTimeout: 400,
					MaxRetries:   6,
				},
				WatchdogCycles: 50_000,
			})
		}},
		{"closed-loop", func(b *testing.B) *network.Network {
			w := workload.ClientWorkload("closed", topology.ColumnNodes)
			n := network.MustNew(network.Config{Kind: topology.MECS, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 3})
			if _, err := workload.NewController(n, workload.ClientConfig{
				Outstanding: 2, ThinkMean: 400, Pattern: traffic.HotspotTraffic(nil), Seed: 17,
			}); err != nil {
				b.Fatal(err)
			}
			return n
		}},
	}
	for _, cell := range cells {
		b.Run(cell.name, func(b *testing.B) {
			var spills uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				n := cell.build(b)
				b.StartTimer()
				n.Run(cycles)
				c := n.OverflowCensus()
				spills += c.EventSpills + c.ArrivalSpills
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cycles, "ns/cycle")
			b.ReportMetric(float64(spills)/float64(b.N), "overflow-spills/op")
		})
	}
}
