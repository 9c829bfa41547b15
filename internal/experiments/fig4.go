package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Pattern selects the synthetic traffic of the load-latency sweeps.
type Pattern uint8

const (
	Uniform Pattern = iota
	TornadoPattern
)

func (p Pattern) String() string {
	if p == TornadoPattern {
		return "tornado"
	}
	return "uniform random"
}

func (p Pattern) workload(rate float64) traffic.Workload {
	if p == TornadoPattern {
		return traffic.Tornado(topology.ColumnNodes, rate)
	}
	return traffic.UniformRandom(topology.ColumnNodes, rate)
}

// Fig4Point is one (injection rate, latency) sample of a Figure 4 curve.
type Fig4Point struct {
	// Rate is the per-injector offered load in flits/cycle.
	Rate float64
	// MeanLatency is the average delivered-packet latency in cycles
	// (from generation, so source queueing in saturation shows as the
	// hockey stick).
	MeanLatency float64
	// P99Latency is the 99th-percentile latency — the tail a QoS scheme
	// is judged on.
	P99Latency float64
	// Accepted is delivered flits per cycle network-wide.
	Accepted float64
	// PreemptionPct is the preemption event rate (Section 5.2 quotes
	// the in-saturation values).
	PreemptionPct float64
}

// Fig4Series is one topology's latency curve.
type Fig4Series struct {
	Kind   topology.Kind
	Points []Fig4Point
}

// DefaultFig4Rates sweeps injection rates 1–15 %, Figure 4's X axis.
func DefaultFig4Rates() []float64 {
	var rates []float64
	for r := 1; r <= 15; r++ {
		rates = append(rates, float64(r)/100)
	}
	return rates
}

// Fig4 runs the load-latency sweep for every topology under the given
// pattern (Figure 4(a) uniform random, Figure 4(b) tornado). The
// (topology × rate) grid is fully independent, so every point runs as
// its own cell on the parallel experiment runner.
func Fig4(pattern Pattern, rates []float64, p Params) []Fig4Series {
	kinds := topology.Kinds()
	cells := make([]runner.Cell, 0, len(kinds)*len(rates))
	for _, kind := range kinds {
		for _, rate := range rates {
			cells = append(cells, p.cell(p.netConfig(kind, pattern.workload(rate), qos.PVC)))
		}
	}
	res := p.run(cells)

	out := make([]Fig4Series, 0, len(kinds))
	for ki, kind := range kinds {
		s := Fig4Series{Kind: kind, Points: make([]Fig4Point, 0, len(rates))}
		for ri, rate := range rates {
			r := res[ki*len(rates)+ri]
			st := r.Stats
			s.Points = append(s.Points, Fig4Point{
				Rate:          rate,
				MeanLatency:   st.MeanLatency(),
				P99Latency:    float64(st.Latencies.Percentile(99)),
				Accepted:      st.AcceptedFlitRate(r.End),
				PreemptionPct: st.PreemptionPacketRate(),
			})
		}
		out = append(out, s)
	}
	return out
}

// RenderFig4 prints the latency curves as aligned columns, one row per
// injection rate.
func RenderFig4(pattern Pattern, series []Fig4Series) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 4: latency vs injection rate — %s", pattern)))
	fmt.Fprintf(&b, "%8s", "rate")
	for _, s := range series {
		fmt.Fprintf(&b, " %12s", s.Kind)
	}
	b.WriteString("\n")
	if len(series) == 0 || len(series[0].Points) == 0 {
		return b.String()
	}
	for i := range series[0].Points {
		fmt.Fprintf(&b, "%7.0f%%", series[0].Points[i].Rate*100)
		for _, s := range series {
			fmt.Fprintf(&b, " %12.1f", s.Points[i].MeanLatency)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// SaturationPreemption is the in-saturation packet replay rate the paper
// quotes in Section 5.2 (mesh x1 ~7 %, MECS ~0.04 %, ...).
type SaturationPreemption struct {
	Kind          topology.Kind
	PreemptionPct float64
}

// SaturationPreemptions measures the packet discard rate of each topology
// on saturating uniform-random traffic, one parallel cell per topology.
func SaturationPreemptions(p Params) []SaturationPreemption {
	kinds := topology.Kinds()
	cells := make([]runner.Cell, len(kinds))
	for i, kind := range kinds {
		cells[i] = p.cell(p.netConfig(kind, traffic.UniformRandom(topology.ColumnNodes, 0.15), qos.PVC))
	}
	res := p.run(cells)
	out := make([]SaturationPreemption, len(kinds))
	for i, kind := range kinds {
		out[i] = SaturationPreemption{
			Kind:          kind,
			PreemptionPct: res[i].Stats.PreemptionPacketRate(),
		}
	}
	return out
}

// RenderSaturationPreemptions prints the Section 5.2 replay rates.
func RenderSaturationPreemptions(rows []SaturationPreemption) string {
	var b strings.Builder
	b.WriteString(header("Section 5.2: packet replay rate in saturation (uniform random, 15%)"))
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %8.2f%%\n", r.Kind, r.PreemptionPct)
	}
	return b.String()
}
