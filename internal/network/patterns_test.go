package network

import (
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// These tests pin the engine-facing contracts of the synthetic pattern
// library: every pattern drives every topology under every QoS mode, and
// neither patterns nor bursts reintroduce allocations on the steady-state
// hot path. The bursty (MMPP on/off) arrival sampler is a cell of the
// contract table (contract_test.go), so every row covers it.

// newPatterns are the destination permutations and weighted hotspot added
// on top of the paper's uniform/tornado/hotspot trio.
func newPatterns() []traffic.Pattern {
	return []traffic.Pattern{
		traffic.TransposeTraffic(),
		traffic.BitComplementTraffic(),
		traffic.BitReversalTraffic(),
		traffic.ShuffleTraffic(),
		traffic.HotspotTraffic([]float64{4, 0, 1, 1, 0, 1, 0, 1}),
	}
}

func TestNewPatternsRunOnAllTopologiesAndModes(t *testing.T) {
	for _, pat := range newPatterns() {
		w, err := traffic.Synthetic(pat, topology.ColumnNodes, 0.03, traffic.Burst{})
		if err != nil {
			t.Fatalf("%s: %v", pat.Name(), err)
		}
		for _, kind := range topology.Kinds() {
			for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
				t.Run(pat.Name()+"/"+kind.String()+"/"+mode.String(), func(t *testing.T) {
					cfg := qos.DefaultConfig(w.TotalFlows())
					cfg.Mode = mode
					n := MustNew(Config{Kind: kind, QoS: cfg, Workload: w, Seed: 11})
					n.WarmupAndMeasure(1_000, 5_000)
					if n.Stats().TotalDelivered == 0 {
						t.Fatal("no packets delivered")
					}
				})
			}
		}
	}
}

// burstyWorkload builds a mixed workload exercising both bursty and
// smooth sources over a permutation pattern.
func burstyWorkload(t *testing.T) traffic.Workload {
	t.Helper()
	w, err := traffic.Synthetic(traffic.BitReversalTraffic(), topology.ColumnNodes, 0.04,
		traffic.Burst{MeanOn: 120, MeanOff: 360})
	if err != nil {
		t.Fatal(err)
	}
	// Leave half the injectors smooth so both sampler paths interleave.
	for i := range w.Specs {
		if i%2 == 0 {
			w.Specs[i].Burst = traffic.Burst{}
		}
	}
	return w
}

func TestStepAllocationFreeWithPatternsAndBursts(t *testing.T) {
	w := burstyWorkload(t)
	// Add a weighted-hotspot stream so the Float64-draw picker is on the
	// measured path too.
	hs, err := traffic.HotspotTraffic([]float64{2, 1, 1, 1, 1, 1, 1, 1}).DestFor(3, topology.ColumnNodes)
	if err != nil {
		t.Fatal(err)
	}
	w.Specs[3*topology.InjectorsPerNode].Dest = hs
	n := MustNew(Config{
		Kind:     topology.MECS,
		QoS:      qos.DefaultConfig(w.TotalFlows()),
		Workload: w,
		Seed:     3,
	})
	n.Run(30_000)
	if avg := testing.AllocsPerRun(5_000, n.Step); avg != 0 {
		t.Errorf("%v allocs per Step with patterns+bursts at steady state, want exactly 0", avg)
	}
}
