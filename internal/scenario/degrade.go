package scenario

import (
	"context"
	"fmt"
	"strings"

	"tanoq/internal/sim"
)

// This file is the degradation sweep: it runs a faulted scenario twice —
// once as written and once with the [faults] table stripped — and joins
// the grids point by point, so every row reports how far the faulted
// network fell from its healthy self: delivered fraction, victim
// slowdown, and mean/p99 latency inflation, per QoS mode. That is the
// robustness question the fault subsystem exists to answer: which QoS
// discipline degrades gracefully.

// DegradeRow pairs one faulted grid point with its fault-free baseline.
type DegradeRow struct {
	Point
	// metrics is what the faulted cell measured.
	metrics
	// The baseline's latencies, and the faulted cell's ratios to them (0
	// when the baseline delivered nothing).
	BaseMeanLatency float64
	BaseP99Latency  float64
	MeanInflation   float64
	P99Inflation    float64
	// Error marks a faulted cell that failed outright (e.g. a watchdog
	// trip under a permanent stall) — itself a degradation datum.
	Error string
}

// healthy projects a grid point's fault axes away: what a faulted row
// and its fault-free baseline share.
func healthy(p Point) Point {
	p.RetryTimeout, p.MaxRetries = 0, 0
	return p
}

// Degrade expands and runs the faulted scenario and its fault-free
// baseline through RunDurable with opts, and joins the results per point.
// The scenario must schedule faults or arm recovery — a degradation sweep
// of a healthy network is a no-op by construction.
func Degrade(ctx context.Context, sc *Scenario, opts DurableOpts) ([]DegradeRow, error) {
	if len(sc.FaultWindows) == 0 {
		return nil, fmt.Errorf("scenario %s: degrade needs a [faults] table with fault windows", sc.Name)
	}
	base := *sc
	base.FaultWindows = nil
	base.RetryTimeouts = []sim.Cycle{0}
	base.MaxRetriesAxis = []int{0}
	base.WatchdogCycles = 0
	fg, err := sc.Grid()
	if err != nil {
		return nil, err
	}
	bg, err := base.Grid()
	if err != nil {
		return nil, err
	}
	frep, err := fg.RunDurable(ctx, opts)
	if err != nil {
		return nil, err
	}
	brep, err := bg.RunDurable(ctx, opts)
	if err != nil {
		return nil, err
	}
	baseBy := make(map[Point]Result, len(brep.Results))
	for _, r := range brep.Results {
		baseBy[healthy(r.Point)] = r
	}
	rows := make([]DegradeRow, len(frep.Results))
	for i, r := range frep.Results {
		row := DegradeRow{Point: r.Point, metrics: r.metrics, Error: r.Error}
		if b, ok := baseBy[healthy(r.Point)]; ok && b.Error == "" {
			row.BaseMeanLatency = b.MeanLatency
			row.BaseP99Latency = b.P99Latency
			if b.MeanLatency > 0 {
				row.MeanInflation = r.MeanLatency / b.MeanLatency
			}
			if b.P99Latency > 0 {
				row.P99Inflation = r.P99Latency / b.P99Latency
			}
		}
		rows[i] = row
	}
	return rows, nil
}

// DegradeCSV renders degradation rows, one per faulted grid point. It
// keeps its own layout: 14 of its columns repeat a sweep column's name
// and precision (columns.go), so a change to one is made in both.
func DegradeCSV(name string, rows []DegradeRow) string {
	var b strings.Builder
	b.WriteString("scenario,pattern,topology,qos,seed,rate,retry_timeout,max_retries," +
		"delivered_fraction,retries,drops,victim_slowdown," +
		"mean_latency_cycles,base_mean_latency_cycles,mean_inflation," +
		"p99_latency_cycles,base_p99_latency_cycles,p99_inflation,error\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%s,%s,%s,%s,%d,%.4f,%d,%d,%.6f,%d,%d,%.3f,%.3f,%.3f,%.3f,%.0f,%.0f,%.3f,%s\n",
			csvEscape(name), csvEscape(r.Pattern), csvEscape(r.Topology.String()), csvEscape(r.Mode.String()),
			r.Seed, r.Rate, r.RetryTimeout, r.MaxRetries,
			r.DeliveredFraction, r.Retries, r.Drops, r.VictimSlowdown,
			r.MeanLatency, r.BaseMeanLatency, r.MeanInflation,
			r.P99Latency, r.BaseP99Latency, r.P99Inflation, csvEscape(r.Error))
	}
	return b.String()
}

// RenderDegrade prints the degradation table: per-point delivered
// fraction, recovery traffic and latency inflation versus the healthy
// baseline.
func RenderDegrade(name string, rows []DegradeRow) string {
	var b strings.Builder
	title := fmt.Sprintf("Degradation sweep: %s (%d faulted cells vs healthy baseline)", name, len(rows))
	b.WriteString(title + "\n" + strings.Repeat("-", len(title)) + "\n")
	fmt.Fprintf(&b, "%-14s %-9s %-14s %8s %8s %8s %8s %8s %9s %9s %9s %8s\n",
		"pattern", "topology", "qos", "seed", "rto", "dlv", "retries", "drops", "latency", "p99-infl", "mean-infl", "vslow")
	for _, r := range rows {
		if r.Error != "" {
			fmt.Fprintf(&b, "%-14s %-9s %-14s %8d %8d  FAILED: %s\n",
				r.Pattern, r.Topology, r.Mode, r.Seed, r.RetryTimeout, r.Error)
			continue
		}
		vslow := "-"
		if r.VictimSlowdown > 0 {
			vslow = fmt.Sprintf("%.2fx", r.VictimSlowdown)
		}
		fmt.Fprintf(&b, "%-14s %-9s %-14s %8d %8d %7.2f%% %8d %8d %9.1f %8.2fx %8.2fx %8s\n",
			r.Pattern, r.Topology, r.Mode, r.Seed, r.RetryTimeout,
			100*r.DeliveredFraction, r.Retries, r.Drops,
			r.MeanLatency, r.P99Inflation, r.MeanInflation, vslow)
	}
	return b.String()
}
