package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// The closed-loop hotspot experiment extends the paper's evaluation to
// the workload class its open-loop methodology cannot express: clients
// that wait for replies before issuing more work. Every node hosts a
// client streaming write-shaped transactions at node 0's shared resource
// — 4-flit write requests into the contended ejection port (exactly
// Table 2's resource), acknowledged by 1-flit completions — with a
// bounded outstanding window. The transaction's bandwidth rides the
// request path, so per-client QoS arbitration at the hotspot decides who
// completes work. Under no-QoS round-robin the distant clients'
// starvation compounds — each lost arbitration stalls a window slot for
// a full round trip — while PVC holds per-client completion level. This
// is the regime where QoS changes end-to-end throughput, not just
// latency tails.

// ClosedLoopRow is one topology × QoS-mode cell: the dispersion of
// per-client completed requests (Table-2 style) plus round-trip latency.
type ClosedLoopRow struct {
	Kind topology.Kind
	Mode qos.Mode
	// Summary is the per-client completed-request dispersion over the
	// measurement window.
	Summary stats.Summary
	// Completed is the total completed round trips; MeanRTT/P99RTT the
	// round-trip latency aggregates in cycles.
	Completed int64
	MeanRTT   float64
	P99RTT    float64
}

// Closed-loop experiment shape: every client keeps ClosedLoopWindow
// requests in flight at the node-0 hotspot with a short think time — deep
// enough to keep the server saturated, so arbitration (not client
// demand) decides who completes work.
const (
	ClosedLoopWindow    = 32
	ClosedLoopThinkMean = 10.0
)

// ClosedLoop runs the closed-loop hotspot experiment over every topology
// and QoS mode, one parallel runner cell per combination.
func ClosedLoop(p Params) []ClosedLoopRow {
	kinds := topology.Kinds()
	modes := []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS}
	var cells []runner.Cell
	var rows []ClosedLoopRow
	for _, kind := range kinds {
		for _, mode := range modes {
			w := workload.ClientWorkload("closed-hotspot", topology.ColumnNodes)
			cells = append(cells, runner.Cell{
				Config: p.netConfig(kind, w, mode),
				Warmup: p.Warmup, Measure: p.Measure,
				Setup: func(n *network.Network) any {
					ct, err := workload.NewController(n, workload.ClientConfig{
						Outstanding:  ClosedLoopWindow,
						ThinkMean:    ClosedLoopThinkMean,
						Pattern:      traffic.HotspotTraffic(nil),
						RequestFlits: noc.ReplyFlits,   // 4-flit writes in
						ReplyFlits:   noc.RequestFlits, // 1-flit acks back
						Seed:         p.Seed,
					})
					if err != nil {
						panic(err)
					}
					return ct
				},
			})
			rows = append(rows, ClosedLoopRow{Kind: kind, Mode: mode})
		}
	}
	res := p.run(cells)
	for i := range rows {
		ct := res[i].Aux.(*workload.Controller)
		rows[i].Summary = stats.Summarize(ct.RT.PerClient())
		rows[i].Completed = ct.RT.TotalCompleted()
		rows[i].MeanRTT = ct.RT.MeanRTT()
		rows[i].P99RTT = float64(ct.RT.Latencies.Percentile(99))
	}
	return rows
}

// RenderClosedLoop prints the experiment in Table 2's format, extended
// with round-trip latency: per-client completed requests with
// min/max/stddev as percentages of the mean.
func RenderClosedLoop(rows []ClosedLoopRow) string {
	var b strings.Builder
	b.WriteString(header("Closed loop: per-client completed requests under a hotspot server"))
	fmt.Fprintf(&b, "%-9s %-14s %9s %8s %16s %16s %16s %10s %9s\n",
		"topology", "qos", "completed", "mean", "min (% of mean)", "max (% of mean)", "stddev (% mean)", "mean rtt", "p99 rtt")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-9s %-14s %9d %8.0f %7.0f (%5.1f%%) %7.0f (%5.1f%%) %7.1f (%5.1f%%) %10.1f %9.0f\n",
			r.Kind, r.Mode, r.Completed, r.Summary.Mean,
			r.Summary.Min, r.Summary.MinPctOfMean(),
			r.Summary.Max, r.Summary.MaxPctOfMean(),
			r.Summary.StdDev, r.Summary.StdDevPctOfMean(),
			r.MeanRTT, r.P99RTT)
	}
	return b.String()
}

// ClosedLoopCSV renders the experiment as CSV rows.
func ClosedLoopCSV(rows []ClosedLoopRow) string {
	var b strings.Builder
	b.WriteString("topology,qos,completed_requests,mean_completed_per_client,min_pct_of_mean,max_pct_of_mean,stddev_pct_of_mean,mean_rtt_cycles,p99_rtt_cycles\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%d,%.1f,%.2f,%.2f,%.2f,%.2f,%.0f\n",
			r.Kind, r.Mode, r.Completed, r.Summary.Mean,
			r.Summary.MinPctOfMean(), r.Summary.MaxPctOfMean(), r.Summary.StdDevPctOfMean(),
			r.MeanRTT, r.P99RTT)
	}
	return b.String()
}
