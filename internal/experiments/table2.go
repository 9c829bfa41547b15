package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Table2Row is one topology's hotspot-fairness line: the dispersion of
// per-flow delivered flits when all 64 injectors stream at node 0's
// terminal.
type Table2Row struct {
	Kind    topology.Kind
	Summary stats.Summary
	// PreemptionPct is the (very low) preemption incidence in this
	// experiment; PVC's reserved quota throttles discards when every
	// source transmits within its allocation (Section 5.3).
	PreemptionPct float64
}

// hotspotRate is the per-injector offered load of the Table 2 experiment:
// with 64 flows sharing one terminal's flit/cycle, anything beyond
// 1/64 ≈ 1.6 % saturates the hotspot; 5 % holds it deep in saturation.
const hotspotRate = 0.05

// Table2Params sizes the measurement window so each flow's fair share is
// the ~4.2 K flits the paper's table reports (64 flows x 4,190 flits ≈
// 268 K cycles of saturated ejection).
func Table2Params() Params {
	return Params{Seed: 42, Warmup: 20_000, Measure: 268_288}
}

// Table2 runs the hotspot fairness experiment for every topology, one
// parallel cell per topology.
func Table2(p Params) []Table2Row {
	kinds := topology.Kinds()
	cells := make([]runner.Cell, len(kinds))
	for i, kind := range kinds {
		cells[i] = p.cell(p.netConfig(kind, traffic.Hotspot(topology.ColumnNodes, hotspotRate), qos.PVC))
	}
	res := p.run(cells)
	out := make([]Table2Row, len(kinds))
	for i, kind := range kinds {
		st := res[i].Stats
		flits := make([]float64, 0, FlowPopulation)
		for _, v := range st.FlitsByFlow() {
			flits = append(flits, float64(v))
		}
		out[i] = Table2Row{
			Kind:          kind,
			Summary:       stats.Summarize(flits),
			PreemptionPct: st.PreemptionPacketRate(),
		}
	}
	return out
}

// RenderTable2 prints the table in the paper's format: mean flits with
// min/max/stddev as percentages of the mean.
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString(header("Table 2: relative throughput under hotspot traffic, in flits"))
	fmt.Fprintf(&b, "%-9s %8s %18s %18s %18s\n",
		"topology", "mean", "min (% of mean)", "max (% of mean)", "stddev (% of mean)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8.0f %8.0f (%5.1f%%) %8.0f (%5.1f%%) %8.1f (%5.1f%%)\n",
			r.Kind, r.Summary.Mean,
			r.Summary.Min, r.Summary.MinPctOfMean(),
			r.Summary.Max, r.Summary.MaxPctOfMean(),
			r.Summary.StdDev, r.Summary.StdDevPctOfMean())
	}
	return b.String()
}
