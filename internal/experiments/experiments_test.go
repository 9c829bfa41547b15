package experiments

import (
	"fmt"
	"strings"
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// tiny returns fast parameters for unit tests; shapes that need longer
// windows are asserted with generous margins.
func tiny() Params { return Params{Seed: 42, Warmup: 2_000, Measure: 10_000} }

func byKind[T any](t *testing.T, rows []T, kind func(T) topology.Kind) map[topology.Kind]T {
	t.Helper()
	if len(rows) != len(topology.Kinds()) {
		t.Fatalf("%d rows, want %d", len(rows), len(topology.Kinds()))
	}
	out := map[topology.Kind]T{}
	for _, r := range rows {
		out[kind(r)] = r
	}
	return out
}

func TestFig3RowsAndRendering(t *testing.T) {
	rows := Fig3()
	m := byKind(t, rows, func(r Fig3Row) topology.Kind { return r.Kind })
	if m[topology.MeshX4].Area.Total() <= m[topology.MeshX1].Area.Total() {
		t.Error("fig3 ordering broken")
	}
	s := RenderFig3(rows)
	for _, want := range []string{"mesh_x1", "mecs", "dps", "xbar", "flowstate"} {
		if !strings.Contains(s, want) {
			t.Errorf("render missing %q:\n%s", want, s)
		}
	}
}

func TestFig7RowsAndRendering(t *testing.T) {
	rows := Fig7()
	m := byKind(t, rows, func(r Fig7Row) topology.Kind { return r.Kind })
	if m[topology.MECS].Intermediate.Total() != 0 {
		t.Error("MECS must have no intermediate hop energy")
	}
	if m[topology.DPS].Intermediate.Total() >= m[topology.DPS].Src.Total() {
		t.Error("DPS intermediate must be cheaper than source")
	}
	if m[topology.DPS].ThreeHops.Total() >= m[topology.MeshX1].ThreeHops.Total() {
		t.Error("DPS must win the 3-hop comparison vs mesh x1")
	}
	s := RenderFig7(rows)
	if !strings.Contains(s, "3 hops") || !strings.Contains(s, "-") {
		t.Errorf("render malformed:\n%s", s)
	}
}

func TestFig4UniformShape(t *testing.T) {
	rates := []float64{0.02, 0.06}
	series := Fig4(Uniform, rates, tiny())
	m := byKind(t, series, func(s Fig4Series) topology.Kind { return s.Kind })
	for kind, s := range m {
		if len(s.Points) != len(rates) {
			t.Fatalf("%v: %d points", kind, len(s.Points))
		}
		for _, pt := range s.Points {
			if pt.MeanLatency <= 0 {
				t.Fatalf("%v: zero latency at rate %v", kind, pt.Rate)
			}
		}
		// Latency grows with load.
		if s.Points[1].MeanLatency < s.Points[0].MeanLatency {
			t.Errorf("%v: latency fell with load: %v", kind, s.Points)
		}
	}
	// The headline: MECS and DPS beat every mesh at low load.
	for _, mesh := range []topology.Kind{topology.MeshX1, topology.MeshX2, topology.MeshX4} {
		if m[topology.MECS].Points[0].MeanLatency >= m[mesh].Points[0].MeanLatency {
			t.Errorf("MECS should beat %v at low load", mesh)
		}
		if m[topology.DPS].Points[0].MeanLatency >= m[mesh].Points[0].MeanLatency {
			t.Errorf("DPS should beat %v at low load", mesh)
		}
	}
	out := RenderFig4(Uniform, series)
	if !strings.Contains(out, "uniform random") || !strings.Contains(out, "2%") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestFig4TornadoMECSAdvantage(t *testing.T) {
	series := Fig4(TornadoPattern, []float64{0.04}, tiny())
	m := byKind(t, series, func(s Fig4Series) topology.Kind { return s.Kind })
	if m[topology.MECS].Points[0].MeanLatency >= m[topology.DPS].Points[0].MeanLatency {
		t.Error("tornado distance-4 transfers should favour MECS over DPS")
	}
}

func TestTable2Fairness(t *testing.T) {
	rows := Table2(Params{Seed: 42, Warmup: 5_000, Measure: 30_000})
	m := byKind(t, rows, func(r Table2Row) topology.Kind { return r.Kind })
	for kind, r := range m {
		if r.Summary.Mean <= 0 {
			t.Fatalf("%v: no throughput", kind)
		}
		// Replicated meshes spread each flow's counters across replica
		// ports, coarsening the fairness granularity; the paper's
		// unreplicated topologies hold ~1-2 %.
		limit := 6.0
		if kind == topology.MeshX2 || kind == topology.MeshX4 {
			limit = 15.0
		}
		if dev := r.Summary.MaxDeviationPct(); dev > limit {
			t.Errorf("%v: hotspot deviation %.1f%%, want < %.0f%%", kind, dev, limit)
		}
		if r.PreemptionPct > 3 {
			t.Errorf("%v: preemption %.2f%% despite reserved quotas", kind, r.PreemptionPct)
		}
	}
	out := RenderTable2(rows)
	if !strings.Contains(out, "stddev") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestFig5AdversarialPreemptions(t *testing.T) {
	rows := Fig5(Workload1, Params{Seed: 42, Warmup: 2_000, Measure: 60_000})
	m := byKind(t, rows, func(r Fig5Row) topology.Kind { return r.Kind })
	// Someone must preempt under the adversarial pattern; the paper sees
	// rates from ~9% (x1/DPS hops) to ~35% (replicated mesh packets).
	any := false
	for kind, r := range m {
		if r.PacketsPct < 0 || r.HopsPct < 0 {
			t.Fatalf("%v: negative rates", kind)
		}
		if r.PacketsPct > 0 {
			any = true
		}
	}
	if !any {
		t.Fatal("workload 1 triggered no preemptions anywhere")
	}
	out := RenderFig5(Workload1, rows)
	if !strings.Contains(out, "workload 1") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestFig6SlowdownSmallAndFair(t *testing.T) {
	rows := Fig6(Workload1, Params{Seed: 42, Warmup: 0, Measure: 60_000})
	m := byKind(t, rows, func(r Fig6Row) topology.Kind { return r.Kind })
	for kind, r := range m {
		// Figure 6: slowdown below ~5%; allow slack for the short run.
		if r.SlowdownPct > 10 {
			t.Errorf("%v: slowdown %.1f%%, want small", kind, r.SlowdownPct)
		}
		if r.MinDeviationPct > r.AvgDeviationPct || r.AvgDeviationPct > r.MaxDeviationPct {
			t.Errorf("%v: deviation ordering broken: %+v", kind, r)
		}
		// Average deviation within a few percent of expectation.
		if r.AvgDeviationPct < -15 || r.AvgDeviationPct > 15 {
			t.Errorf("%v: avg deviation %.1f%% too large", kind, r.AvgDeviationPct)
		}
	}
	out := RenderFig6(Workload1, rows)
	if !strings.Contains(out, "slowdown") {
		t.Errorf("render malformed:\n%s", out)
	}
	_ = m
}

func TestSaturationPreemptionsLow(t *testing.T) {
	rows := SaturationPreemptions(tiny())
	m := byKind(t, rows, func(r SaturationPreemption) topology.Kind { return r.Kind })
	// Section 5.2: discard rates in saturation are very low for every
	// topology (0.04–7 % in the paper); benign symmetric traffic never
	// builds the gross priority inversions that trigger preemption.
	for kind, r := range m {
		if r.PreemptionPct > 7.5 {
			t.Errorf("%v: saturation preemption %.2f%%, want low", kind, r.PreemptionPct)
		}
	}
	out := RenderSaturationPreemptions(rows)
	if !strings.Contains(out, "saturation") {
		t.Errorf("render malformed:\n%s", out)
	}
}

func TestChipCostRendering(t *testing.T) {
	r := ChipCost()
	if r.RoutersWithQoS >= r.RoutersTotal {
		t.Fatal("topology-aware design must protect a minority of routers")
	}
	out := RenderChipCost(r)
	if !strings.Contains(out, "saved") {
		t.Errorf("render malformed:\n%s", out)
	}
}

// TestRunPanicsOnFailedCell pins the drivers' fail-fast rule: a cell
// that fails its one retry too panics instead of rendering as a zero row.
func TestRunPanicsOnFailedCell(t *testing.T) {
	p := tiny()
	bad := p.cell(p.netConfig(topology.MeshX1, traffic.UniformRandom(topology.ColumnNodes, 0.03), qos.PVC))
	bad.Config.Nodes = 1 // invalid: a column needs at least two nodes
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "cell 0 failed after 2 attempts") {
			t.Errorf("recovered %v, want the failed cell's panic", r)
		}
	}()
	p.run([]runner.Cell{bad})
}

func TestParamsPresets(t *testing.T) {
	if t2 := Table2Params(); t2.Measure < 200_000 {
		t.Error("table 2 window must cover the paper's ~4.2K flits per flow")
	}
}

func TestAdversarialStrings(t *testing.T) {
	if Workload1.String() != "workload 1" || Workload2.String() != "workload 2" {
		t.Error("adversarial names wrong")
	}
	if Uniform.String() != "uniform random" || TornadoPattern.String() != "tornado" {
		t.Error("pattern names wrong")
	}
}
