package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Adversarial selects one of Section 5.3's crafted preemption workloads.
type Adversarial uint8

const (
	// Workload1: only the eight terminal injectors stream at the
	// hotspot, with widely different rates (5–20 %, average ≈ 14 %),
	// exhausting each source's reserved quota early in every frame.
	Workload1 Adversarial = iota
	// Workload2: all eight injectors of node 7 plus one at node 6
	// pressure one downstream MECS port and the destination output.
	Workload2
)

func (a Adversarial) String() string {
	if a == Workload2 {
		return "workload 2"
	}
	return "workload 1"
}

func (a Adversarial) workload(stopAt sim.Cycle) traffic.Workload {
	if a == Workload2 {
		return traffic.Workload2(topology.ColumnNodes, stopAt)
	}
	return traffic.Workload1(topology.ColumnNodes, stopAt)
}

// Fig5Row is one topology's pair of bars in Figure 5: preemption events
// as a share of delivered packets, and wasted (replayed) hop traversals as
// a share of all hop traversals, mesh-normalized.
type Fig5Row struct {
	Kind       topology.Kind
	PacketsPct float64
	HopsPct    float64
}

// Fig5 measures preemption incidence under an adversarial workload, one
// parallel cell per topology.
func Fig5(a Adversarial, p Params) []Fig5Row {
	kinds := topology.Kinds()
	cells := make([]runner.Cell, len(kinds))
	for i, kind := range kinds {
		cells[i] = p.cell(p.netConfig(kind, a.workload(0), qos.PVC))
	}
	res := p.run(cells)
	out := make([]Fig5Row, len(kinds))
	for i, kind := range kinds {
		st := res[i].Stats
		out[i] = Fig5Row{
			Kind:       kind,
			PacketsPct: st.PreemptionPacketRate(),
			HopsPct:    st.WastedHopRate(),
		}
	}
	return out
}

// RenderFig5 prints Figure 5's bars.
func RenderFig5(a Adversarial, rows []Fig5Row) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 5: preemption rate — %s", a)))
	fmt.Fprintf(&b, "%-9s %10s %10s\n", "topology", "packets", "hops")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %10s %10s\n", r.Kind, fmtPct(r.PacketsPct), fmtPct(r.HopsPct))
	}
	return b.String()
}

// Fig6Row is one topology's entry in Figure 6: the slowdown preemptions
// impose relative to preemption-free per-flow queueing, and the deviation
// of each source's throughput from its max-min fair expectation.
type Fig6Row struct {
	Kind topology.Kind
	// SlowdownPct is (PVC completion / per-flow-queueing completion - 1)
	// on the identical finite workload.
	SlowdownPct float64
	// AvgDeviationPct averages, over the active sources, the deviation
	// of delivered throughput from the max-min fair expectation during
	// the contended interval; Min/Max give the per-source range (the
	// error bars).
	AvgDeviationPct float64
	MinDeviationPct float64
	MaxDeviationPct float64
}

// fig6Run injects the finite workload for `duration` cycles, snapshots
// per-flow throughput at injection stop (the contended interval), then
// drains and returns the completion time.
func fig6Run(kind topology.Kind, a Adversarial, mode qos.Mode, duration int, p Params) (completion sim.Cycle, flitsAtStop []int64) {
	n := p.buildNet(kind, a.workload(sim.Cycle(duration)), mode)
	n.Run(duration)
	flitsAtStop = n.Stats().FlitsByFlow()
	completion, _ = n.RunUntilDrained(8 * duration)
	return completion, flitsAtStop
}

// fig6Result is one fig6Run outcome, collected through the runner.
type fig6Result struct {
	completion sim.Cycle
	flits      []int64
}

// Fig6 measures preemption slowdown and max-min fairness deviation. Each
// (topology, policy) run has a custom schedule (inject, snapshot, drain),
// so the fan-out goes through runner.Map rather than plain cells; results
// still come back in input order for every worker count.
func Fig6(a Adversarial, p Params) []Fig6Row {
	duration := p.Measure
	w := a.workload(0)
	demands := w.ActiveRates()
	// The contended resource is the hotspot terminal: 1 flit/cycle.
	shares := stats.MaxMinShares(demands, 1.0)

	kinds := topology.Kinds()
	modes := []qos.Mode{qos.PVC, qos.PerFlowQueue}
	runs := runner.Map(len(kinds)*len(modes), p.Workers, func(i int) fig6Result {
		kind, mode := kinds[i/len(modes)], modes[i%len(modes)]
		completion, flits := fig6Run(kind, a, mode, duration, p)
		return fig6Result{completion: completion, flits: flits}
	})

	var out []Fig6Row
	for ki, kind := range kinds {
		pvcDone, flits := runs[ki*len(modes)].completion, runs[ki*len(modes)].flits
		pfqDone := runs[ki*len(modes)+1].completion

		var devs []float64
		for f, share := range shares {
			if share <= 0 {
				continue
			}
			expected := share * float64(duration)
			devs = append(devs, 100*(float64(flits[f])-expected)/expected)
		}
		lo, hi := stats.MinMax(devs)
		row := Fig6Row{
			Kind:            kind,
			AvgDeviationPct: stats.Mean(devs),
			MinDeviationPct: lo,
			MaxDeviationPct: hi,
		}
		if pfqDone > 0 {
			row.SlowdownPct = 100 * (float64(pvcDone) - float64(pfqDone)) / float64(pfqDone)
		}
		out = append(out, row)
	}
	return out
}

// RenderFig6 prints Figure 6's bars and error ranges.
func RenderFig6(a Adversarial, rows []Fig6Row) string {
	var b strings.Builder
	b.WriteString(header(fmt.Sprintf("Figure 6: preemption slowdown and max-min deviation — %s", a)))
	fmt.Fprintf(&b, "%-9s %10s %12s %22s\n", "topology", "slowdown", "avg dev", "dev range [min,max]")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %10s %12s %10s,%10s\n",
			r.Kind, fmtPct(r.SlowdownPct), fmtPct(r.AvgDeviationPct),
			fmtPct(r.MinDeviationPct), fmtPct(r.MaxDeviationPct))
	}
	return b.String()
}
