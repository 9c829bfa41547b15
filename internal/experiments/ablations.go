package experiments

import (
	"fmt"
	"strings"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// This file holds the ablation studies DESIGN.md calls out: sweeps over
// the PVC design parameters whose values the paper fixes (frame length,
// priority quantization, preemption hysteresis, retransmission window,
// reserved quota) showing why each sits where it does. Every ablation
// runs the saturating hotspot workload — the configuration under which
// each mechanism is load-bearing — on a single topology and reports
// fairness dispersion and preemption incidence.

// AblationRow is one design point of a parameter sweep.
type AblationRow struct {
	// Value is the swept parameter (unit depends on the sweep).
	Value int64
	// MaxDevPct is the worst per-flow throughput deviation from the
	// mean, in percent (fairness).
	MaxDevPct float64
	// StdDevPct is the dispersion of per-flow throughput.
	StdDevPct float64
	// PreemptPct is the preemption event rate over delivered packets.
	PreemptPct float64
	// MeanLatency in cycles.
	MeanLatency float64
	// AcceptedRate is delivered flits per cycle (used by the window
	// sweep, where the window caps per-flow bandwidth).
	AcceptedRate float64
}

// hotspotCell builds one hotspot-workload cell with a customized QoS
// configuration — the unit every ablation sweep fans out over.
func hotspotCell(kind topology.Kind, mut func(*qos.Config), p Params) runner.Cell {
	cfg := p.netConfig(kind, traffic.Hotspot(topology.ColumnNodes, hotspotRate), qos.PVC)
	mut(&cfg.QoS)
	return p.cell(cfg)
}

// hotspotRow summarizes one hotspot cell's fairness and preemption.
func hotspotRow(r runner.Result) AblationRow {
	st := r.Stats
	flits := make([]float64, 0, FlowPopulation)
	for _, v := range st.FlitsByFlow() {
		flits = append(flits, float64(v))
	}
	sum := stats.Summarize(flits)
	return AblationRow{
		MaxDevPct:   sum.MaxDeviationPct(),
		StdDevPct:   sum.StdDevPctOfMean(),
		PreemptPct:  st.PreemptionPacketRate(),
		MeanLatency: st.MeanLatency(),
	}
}

// DefaultFrameSweep is the frame-length grid (cycles).
var DefaultFrameSweep = []sim.Cycle{12_500, 25_000, 50_000, 100_000}

// AblateFrame sweeps the PVC frame duration. Shorter frames give
// finer-grained guarantees (counters reset more often, so transient
// imbalances are forgiven quickly) at the cost of more frequent priority
// upheaval; 50 K cycles is the paper's operating point.
func AblateFrame(kind topology.Kind, frames []sim.Cycle, p Params) []AblationRow {
	values := make([]int64, len(frames))
	for i, f := range frames {
		values[i] = int64(f)
	}
	return ablateSweep(kind, values, func(v int64, c *qos.Config) { c.FrameCycles = sim.Cycle(v) }, p)
}

// ablateSweep fans one hotspot parameter sweep out over the runner: one
// cell per value, with mut applying the value to that cell's QoS config.
func ablateSweep(kind topology.Kind, values []int64, mut func(int64, *qos.Config), p Params) []AblationRow {
	cells := make([]runner.Cell, len(values))
	for i, v := range values {
		cells[i] = hotspotCell(kind, func(c *qos.Config) { mut(v, c) }, p)
	}
	res := p.run(cells)
	out := make([]AblationRow, len(values))
	for i, v := range values {
		out[i] = hotspotRow(res[i])
		out[i].Value = v
	}
	return out
}

// DefaultQuantumSweep is the priority-quantization grid (flits).
var DefaultQuantumSweep = []int{4, 8, 32, 128, 512}

// AblateQuantum sweeps the priority quantum: how many flits of bandwidth
// one priority class spans. Fine quanta propagate service imbalances to
// distributed arbiters within a couple of packets; coarse quanta leave
// merge points tie-broken for long stretches and fairness decays — the
// distributed-topology failure mode quantization exists to prevent.
func AblateQuantum(kind topology.Kind, quanta []int, p Params) []AblationRow {
	values := make([]int64, len(quanta))
	for i, q := range quanta {
		values[i] = int64(q)
	}
	return ablateSweep(kind, values, func(v int64, c *qos.Config) { c.QuantumFlits = int(v) }, p)
}

// DefaultWindowSweep is the retransmission-window grid (packets).
var DefaultWindowSweep = []int{1, 2, 4, 8, 32}

// AblateWindow sweeps the per-source outstanding-packet window against a
// single high-rate flow crossing the whole column: a source may not have
// more than window unacknowledged packets in the network, so its accepted
// bandwidth is capped at roughly window x packet / round-trip — the
// classic windowed-protocol ceiling. The window must cover the delivery +
// ACK round trip of the fastest flow it should not throttle.
func AblateWindow(kind topology.Kind, windows []int, p Params) []AblationRow {
	far := noc.NodeID(topology.ColumnNodes - 1)
	w := traffic.Workload{Name: "window-probe", Nodes: topology.ColumnNodes}
	w.Specs = append(w.Specs, traffic.Spec{
		Flow:            traffic.FlowOf(far, 0),
		Node:            far,
		Rate:            0.9,
		RequestFraction: traffic.DefaultRequestFraction,
		Dest:            traffic.FixedDest(traffic.HotspotNode),
	})
	cells := make([]runner.Cell, len(windows))
	for i, wnd := range windows {
		cfg := defaultQoS(qos.PVC)
		cfg.WindowPackets = wnd
		cells[i] = p.cell(network.Config{
			Kind: kind, Nodes: topology.ColumnNodes,
			QoS: cfg, Workload: w, Seed: p.Seed,
		})
	}
	res := p.run(cells)
	out := make([]AblationRow, len(windows))
	for i, wnd := range windows {
		st := res[i].Stats
		out[i] = AblationRow{
			Value:        int64(wnd),
			MeanLatency:  st.MeanLatency(),
			AcceptedRate: st.AcceptedFlitRate(res[i].End),
		}
	}
	return out
}

// DefaultMarginSweep is the preemption-hysteresis grid (classes).
var DefaultMarginSweep = []int{1, 8, 64, 256}

// MarginAblationRow extends the sweep with the adversarial-workload
// preemption incidence, where the margin's trade-off lives.
type MarginAblationRow struct {
	MarginClasses int
	// Adversarial Workload 1 preemption rates (Figure 5's metrics).
	PacketsPct float64
	HopsPct    float64
	// Hotspot fairness under the same margin.
	MaxDevPct float64
}

// AblateMargin sweeps the preemption hysteresis. Tiny margins discard on
// every statistical wobble (bandwidth burned on replays); huge margins
// stop resolving real inversions. The sweep shows the adversarial
// preemption rate falling with the margin while hotspot fairness stays
// flat — preemption is a safety valve, not the fairness mechanism.
func AblateMargin(kind topology.Kind, margins []int, p Params) []MarginAblationRow {
	// Two cells per margin: the adversarial workload (preemption
	// incidence) and the hotspot (fairness), interleaved so the whole
	// sweep fans out in one pass.
	cells := make([]runner.Cell, 0, 2*len(margins))
	for _, m := range margins {
		margin := m
		mut := func(c *qos.Config) { c.MarginClasses = margin }
		adv := p.netConfig(kind, traffic.Workload1(topology.ColumnNodes, 0), qos.PVC)
		mut(&adv.QoS)
		cells = append(cells, p.cell(adv), hotspotCell(kind, mut, p))
	}
	res := p.run(cells)
	out := make([]MarginAblationRow, len(margins))
	for i, m := range margins {
		st := res[2*i].Stats
		out[i] = MarginAblationRow{
			MarginClasses: m,
			PacketsPct:    st.PreemptionPacketRate(),
			HopsPct:       st.WastedHopRate(),
			MaxDevPct:     hotspotRow(res[2*i+1]).MaxDevPct,
		}
	}
	return out
}

// QuotaAblationRow compares PVC with and without its reserved
// (rate-compliant) quota under the adversarial workload.
type QuotaAblationRow struct {
	QuotaEnabled bool
	PacketsPct   float64
	HopsPct      float64
	MeanLatency  float64
}

// AblateQuota toggles the reserved quota under the saturating hotspot with
// an eager (margin 1) preemption setting — the regime where the quota is
// load-bearing: with it, every source transmitting within its allocation
// is rate-compliant and non-preemptable, and discards vanish ("with all
// sources transmitting, virtually all packets fall under the reserved
// cap, throttling preemptions", Section 5.3); without it, the same
// statistical wobbles turn into discards.
func AblateQuota(kind topology.Kind, p Params) []QuotaAblationRow {
	toggles := []bool{true, false}
	cells := make([]runner.Cell, len(toggles))
	for i, enabled := range toggles {
		on := enabled
		cells[i] = hotspotCell(kind, func(c *qos.Config) {
			c.DisableReservedQuota = !on
			c.MarginClasses = 1
		}, p)
	}
	res := p.run(cells)
	out := make([]QuotaAblationRow, len(toggles))
	for i, enabled := range toggles {
		st := res[i].Stats
		out[i] = QuotaAblationRow{
			QuotaEnabled: enabled,
			PacketsPct:   st.PreemptionPacketRate(),
			HopsPct:      st.WastedHopRate(),
			MeanLatency:  st.MeanLatency(),
		}
	}
	return out
}

// RenderAblation prints a generic parameter sweep.
func RenderAblation(title, unit string, rows []AblationRow) string {
	var b strings.Builder
	b.WriteString(header(title))
	fmt.Fprintf(&b, "%12s %12s %12s %12s %12s %12s\n", unit, "max dev", "stddev", "preempt", "latency", "accepted")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %11.1f%% %11.1f%% %11.2f%% %12.1f %12.3f\n",
			r.Value, r.MaxDevPct, r.StdDevPct, r.PreemptPct, r.MeanLatency, r.AcceptedRate)
	}
	return b.String()
}

// RenderMarginAblation prints the hysteresis sweep.
func RenderMarginAblation(rows []MarginAblationRow) string {
	var b strings.Builder
	b.WriteString(header("Ablation: preemption hysteresis (adversarial workload 1 + hotspot)"))
	fmt.Fprintf(&b, "%12s %12s %12s %14s\n", "margin", "packets", "hops", "hotspot dev")
	for _, r := range rows {
		fmt.Fprintf(&b, "%12d %11.1f%% %11.1f%% %13.1f%%\n",
			r.MarginClasses, r.PacketsPct, r.HopsPct, r.MaxDevPct)
	}
	return b.String()
}

// RenderQuotaAblation prints the reserved-quota toggle.
func RenderQuotaAblation(rows []QuotaAblationRow) string {
	var b strings.Builder
	b.WriteString(header("Ablation: reserved (rate-compliant) quota under adversarial workload 1"))
	fmt.Fprintf(&b, "%12s %12s %12s %12s\n", "quota", "packets", "hops", "latency")
	for _, r := range rows {
		state := "off"
		if r.QuotaEnabled {
			state = "on"
		}
		fmt.Fprintf(&b, "%12s %11.1f%% %11.1f%% %12.1f\n", state, r.PacketsPct, r.HopsPct, r.MeanLatency)
	}
	return b.String()
}
