package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// BenchmarkEngineCycles measures raw simulator speed: ns per simulated
// cycle for each topology at steady state, below every topology's
// saturation point so the working set stabilizes. The warmup lets the
// packet free list, the wheels' buckets, source queues and scratch
// buffers reach capacity; after it Step allocates nothing
// (TestStepAllocationFreeAtSteadyState asserts that zero on the same
// topologies, load and warmup).
func BenchmarkEngineCycles(b *testing.B) {
	for _, kind := range topology.Kinds() {
		b.Run(kind.String(), func(b *testing.B) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.04)
			n := MustNew(Config{
				Kind:     kind,
				QoS:      qos.DefaultConfig(w.TotalFlows()),
				Workload: w,
				Seed:     5,
				// Step is the tick path; skipping lives in Run and
				// would make "cycles per second" unbounded.
				DisableIdleSkip: true,
			})
			n.Run(30_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.Step()
			}
		})
	}
}

// BenchmarkSaturatedCycles is the saturated counterpart of
// BenchmarkEngineCycles: Workload 1's flows oversubscribe the hotspot's
// ejection port, so candidate lists are deep and, where VCs are finite,
// most allocation rounds end blocked. ns/op is ns per simulated cycle.
// Under PVC and no-QoS skipped-rounds/cycle is how many allocation rounds
// per cycle were answered from a port's verdict memo instead of being
// re-run; under per-flow queueing, where no round blocks and the backlog
// runs to hundreds, heads-compared/round is how many flow-queue heads an
// allocation round looked at. Both live in the internal test package
// because the counters are unexported.
func BenchmarkSaturatedCycles(b *testing.B) {
	w := traffic.Workload1(topology.ColumnNodes, 0)
	for _, kind := range []topology.Kind{topology.MeshX4, topology.MECS} {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			b.Run(kind.String()+"/"+mode.String(), func(b *testing.B) {
				qcfg := qos.DefaultConfig(w.TotalFlows())
				qcfg.Mode = mode
				n := MustNew(Config{Kind: kind, QoS: qcfg, Workload: w, Seed: 5, DisableIdleSkip: true})
				n.Run(10_000)
				skips := n.verdictSkips
				rounds, heads := n.FlowQueueRounds()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
				if mode == qos.PerFlowQueue {
					// A one-cycle smoke run may see no queue round at all.
					if r, h := n.FlowQueueRounds(); r > rounds {
						b.ReportMetric(float64(h-heads)/float64(r-rounds), "heads-compared/round")
					}
				} else {
					b.ReportMetric(float64(n.verdictSkips-skips)/float64(b.N), "skipped-rounds/cycle")
				}
			})
		}
	}
}
