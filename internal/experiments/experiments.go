// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5). Each experiment has a driver returning
// structured results and a renderer printing the same rows/series the
// paper reports. cmd/noctool is a thin wrapper over this package, and the
// repository benchmark's paper_quick workload times it end to end. No
// file yet holds the paper's values to compare against (ROADMAP
// **paper-files**).
package experiments

import (
	"context"
	"fmt"
	"strings"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/runner"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Params controls simulation length, seeding and parallelism for the
// dynamic experiments. The zero value is unusable: noctool fills it from
// its flags, tests and benchmarks start from QuickParams.
type Params struct {
	Seed    uint64
	Warmup  int
	Measure int
	// Workers caps the experiment runner's parallelism: 0 runs one
	// worker per CPU, 1 forces sequential execution. Results are
	// bit-identical for every value — each simulation cell owns its
	// seeded RNG, and the runner returns results in input order.
	Workers int
}

// QuickParams scales runs down for tests and benchmark iterations while
// keeping every qualitative shape.
func QuickParams() Params {
	return Params{Seed: 42, Warmup: 3_000, Measure: 15_000}
}

// QuickFig4Rates is the reduced Figure 4 rate grid used by -quick runs and
// the repository benchmarks. The 1 % row is the near-idle regime the
// event-driven engine targets: its cells cost O(packets), not O(cycles).
func QuickFig4Rates() []float64 {
	return []float64{0.01, 0.02, 0.05, 0.08, 0.11, 0.14}
}

// FlowPopulation is the QoS flow population of the 8-node shared column:
// eight injectors per node.
const FlowPopulation = topology.ColumnNodes * topology.InjectorsPerNode

// defaultQoS builds the evaluation's QoS configuration: PVC with a 50K
// frame and equal assigned rates over the full flow population — the
// provisioning under which the adversarial subsets of Workloads 1 and 2
// exhaust their reserved quotas.
func defaultQoS(mode qos.Mode) qos.Config {
	cfg := qos.DefaultConfig(FlowPopulation)
	cfg.Mode = mode
	return cfg
}

// netConfig assembles one shared-column network configuration — the unit
// the parallel experiment runner fans out over — carrying p's seed.
func (p Params) netConfig(kind topology.Kind, w traffic.Workload, mode qos.Mode) network.Config {
	return network.Config{
		Kind:     kind,
		Nodes:    topology.ColumnNodes,
		QoS:      defaultQoS(mode),
		Workload: w,
		Seed:     p.Seed,
	}
}

// buildNet assembles one shared-column network (single-simulation paths;
// grid experiments go through Params.run instead).
func (p Params) buildNet(kind topology.Kind, w traffic.Workload, mode qos.Mode) *network.Network {
	return network.MustNew(p.netConfig(kind, w, mode))
}

// cell pairs a network configuration with p's warmup/measure schedule.
func (p Params) cell(cfg network.Config) runner.Cell {
	return runner.Cell{Config: cfg, Warmup: p.Warmup, Measure: p.Measure}
}

// run executes cells across p.Workers, retrying each failed cell once,
// and panics on the first cell that still failed: an experiment's cells
// are fixed by its driver, so a failure is a bug, not an input error.
func (p Params) run(cells []runner.Cell) []runner.Result {
	res := runner.RunCellsCtx(context.Background(), cells, runner.Options{Workers: p.Workers, Retries: 1})
	for i := range res {
		if res[i].Err != nil {
			panic(fmt.Sprintf("experiments: cell %d failed after %d attempts: %v", i, res[i].Attempts, res[i].Err))
		}
	}
	return res
}

// header renders an underlined section title.
func header(title string) string {
	return title + "\n" + strings.Repeat("-", len(title)) + "\n"
}

// fmtPct renders a percentage with one decimal.
func fmtPct(v float64) string { return fmt.Sprintf("%.1f%%", v) }
