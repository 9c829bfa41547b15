package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Motivation quantifies the paper's Section 1 problem statement: without
// QoS, on-chip arbitration is only locally fair, so under a hotspot the
// sources close to the contended resource capture its bandwidth and the
// distant ones starve (the parking-lot effect) — the reason CMP-level QoS
// support is necessary at all.

// MotivationRow is one QoS policy's per-node hotspot throughput profile.
type MotivationRow struct {
	Mode qos.Mode
	// FlitsByNode aggregates delivered flits over each node's eight
	// injectors, nearest-to-hotspot first.
	FlitsByNode []int64
	// Jain is Jain's fairness index over the per-flow throughputs
	// (1 = perfectly fair).
	Jain float64
	// NearFarRatio is the throughput ratio of the closest to the
	// farthest node.
	NearFarRatio float64
}

// Motivation runs the saturating hotspot on the baseline mesh under
// round-robin (no QoS) and under PVC, both policies in parallel.
func Motivation(kind topology.Kind, p Params) []MotivationRow {
	modes := []qos.Mode{qos.NoQoS, qos.PVC}
	cells := make([]runner.Cell, len(modes))
	for i, mode := range modes {
		cells[i] = p.cell(p.netConfig(kind, traffic.Hotspot(topology.ColumnNodes, hotspotRate), mode))
	}
	res := p.run(cells)
	var out []MotivationRow
	for i, mode := range modes {
		byFlow := res[i].Stats.FlitsByFlow()
		row := MotivationRow{Mode: mode, FlitsByNode: make([]int64, topology.ColumnNodes)}
		perFlow := make([]float64, 0, len(byFlow))
		for f, v := range byFlow {
			row.FlitsByNode[traffic.NodeOfFlow(noc.FlowID(f))] += v
			perFlow = append(perFlow, float64(v))
		}
		row.Jain = stats.JainIndex(perFlow)
		if far := row.FlitsByNode[topology.ColumnNodes-1]; far > 0 {
			row.NearFarRatio = float64(row.FlitsByNode[0]) / float64(far)
		}
		out = append(out, row)
	}
	return out
}

// RenderMotivation prints the starvation comparison.
func RenderMotivation(kind topology.Kind, rows []MotivationRow) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Motivation: hotspot throughput by node distance — %s", kind)))
	fmt.Fprintf(&b, "%-15s", "policy")
	for n := 0; n < topology.ColumnNodes; n++ {
		fmt.Fprintf(&b, " %8s", fmt.Sprintf("node %d", n))
	}
	fmt.Fprintf(&b, " %8s %10s\n", "Jain", "near/far")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s", r.Mode)
		for _, v := range r.FlitsByNode {
			fmt.Fprintf(&b, " %8d", v)
		}
		fmt.Fprintf(&b, " %8.3f %10.2f\n", r.Jain, r.NearFarRatio)
	}
	b.WriteString("\nnode 0 hosts the hotspot terminal; without QoS its neighbours capture\n")
	b.WriteString("the bandwidth (near/far >> 1), with PVC every node gets an equal share.\n")
	return b.String()
}
