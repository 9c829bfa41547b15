package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// BenchmarkSaturatedCycles is the saturated counterpart of the root
// package's sub-saturation BenchmarkEngineCycles: Workload 1's flows
// oversubscribe the hotspot's ejection port, so candidate lists are deep
// and most allocation rounds end blocked. ns/op is ns per simulated
// cycle; skipped-rounds/cycle is how many allocation rounds per cycle
// were answered from a port's verdict memo instead of being re-run. It
// lives in this package (not beside BenchmarkEngineCycles) because the
// skip counter is unexported.
func BenchmarkSaturatedCycles(b *testing.B) {
	w := traffic.Workload1(topology.ColumnNodes, 0)
	for _, kind := range []topology.Kind{topology.MeshX4, topology.MECS} {
		for _, mode := range []qos.Mode{qos.PVC, qos.NoQoS} {
			b.Run(kind.String()+"/"+mode.String(), func(b *testing.B) {
				qcfg := qos.DefaultConfig(w.TotalFlows())
				qcfg.Mode = mode
				n := MustNew(Config{Kind: kind, QoS: qcfg, Workload: w, Seed: 5, DisableIdleSkip: true})
				n.Run(10_000)
				skips := n.verdictSkips
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					n.Step()
				}
				b.ReportMetric(float64(n.verdictSkips-skips)/float64(b.N), "skipped-rounds/cycle")
			})
		}
	}
}
