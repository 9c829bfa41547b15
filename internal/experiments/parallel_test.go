package experiments

import (
	"reflect"
	"testing"

	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// withWorkers returns tiny() with the given runner parallelism.
func withWorkers(workers int) Params {
	p := tiny()
	p.Workers = workers
	return p
}

// TestExperimentsDeterministicAcrossWorkerCounts is the PR's headline
// contract: every experiment driver produces field-for-field identical
// results whether its simulation cells run sequentially or across eight
// workers. Each cell owns its seeded RNG and the runner returns results
// in input order, so parallelism must be unobservable in the output.
func TestExperimentsDeterministicAcrossWorkerCounts(t *testing.T) {
	rates := []float64{0.03, 0.08}
	type experiment struct {
		name string
		run  func(p Params) any
	}
	for _, e := range []experiment{
		{"Fig4", func(p Params) any { return Fig4(Uniform, rates, p) }},
		{"SaturationPreemptions", func(p Params) any { return SaturationPreemptions(p) }},
		{"Fig5", func(p Params) any { return Fig5(Workload1, p) }},
		{"Fig6", func(p Params) any { return Fig6(Workload2, p) }},
		{"Table2", func(p Params) any { return Table2(p) }},
		{"Motivation", func(p Params) any { return Motivation(topology.MeshX1, p) }},
		{"AblateMargin", func(p Params) any { return AblateMargin(topology.MeshX1, []int{1, 64}, p) }},
		{"AblateQuota", func(p Params) any { return AblateQuota(topology.MeshX1, p) }},
		{"AblateFrame", func(p Params) any { return AblateFrame(topology.DPS, []sim.Cycle{12_500, 50_000}, p) }},
		{"AblateQuantum", func(p Params) any { return AblateQuantum(topology.DPS, []int{8, 128}, p) }},
		{"AblateWindow", func(p Params) any { return AblateWindow(topology.MeshX1, []int{1, 8}, p) }},
	} {
		t.Run(e.name, func(t *testing.T) {
			seq := e.run(withWorkers(1))
			par := e.run(withWorkers(8))
			if !reflect.DeepEqual(seq, par) {
				t.Errorf("parallel result differs from sequential:\nseq: %+v\npar: %+v", seq, par)
			}
		})
	}
}
