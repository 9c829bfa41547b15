package runner

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

func TestWorkersResolution(t *testing.T) {
	if Workers(0) < 1 {
		t.Fatal("Workers(0) must resolve to at least one worker")
	}
	if got := Workers(3); got != 3 {
		t.Fatalf("Workers(3) = %d", got)
	}
	if Workers(-1) < 1 {
		t.Fatal("negative requests must still resolve to a usable pool")
	}
}

func TestDoRunsEveryJobExactlyOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		const jobs = 57
		var counts [jobs]atomic.Int32
		Do(jobs, workers, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: job %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapPreservesInputOrder(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("index %d holds %d: results out of input order", i, v)
		}
	}
}

func TestDoZeroJobs(t *testing.T) {
	Do(0, 8, func(int) { t.Fatal("fn called for zero jobs") })
	if out := Map(0, 8, func(int) int { return 1 }); len(out) != 0 {
		t.Fatalf("Map(0) returned %d results", len(out))
	}
}

func TestPanicPropagatesToCaller(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			Do(8, workers, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
		}()
	}
}

// cells builds a small mixed grid: two topologies at two rates.
func cells(seed uint64) []Cell {
	var out []Cell
	for _, kind := range []topology.Kind{topology.MeshX1, topology.MECS} {
		for _, rate := range []float64{0.03, 0.08} {
			w := traffic.UniformRandom(topology.ColumnNodes, rate)
			out = append(out, Cell{
				Config: network.Config{
					Kind:     kind,
					QoS:      qos.DefaultConfig(w.TotalFlows()),
					Workload: w,
					Seed:     seed,
				},
				Warmup:  1_000,
				Measure: 4_000,
			})
		}
	}
	return out
}

// runAll runs cells with one retry each, the budget the experiment
// drivers use.
func runAll(cs []Cell, workers int) []Result {
	return RunCellsCtx(context.Background(), cs, Options{Workers: workers, Retries: 1})
}

// TestRunCellsDeterministicAcrossWorkerCounts is the runner's central
// contract: parallel execution returns results bit-identical to
// sequential execution, field for field.
func TestRunCellsDeterministicAcrossWorkerCounts(t *testing.T) {
	seq := runAll(cells(11), 1)
	for _, workers := range []int{2, 8} {
		par := runAll(cells(11), workers)
		if len(par) != len(seq) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(par), len(seq))
		}
		for i := range seq {
			if par[i].End != seq[i].End {
				t.Errorf("workers=%d cell %d: end cycle %d != %d", workers, i, par[i].End, seq[i].End)
			}
			if !reflect.DeepEqual(par[i].Stats, seq[i].Stats) {
				t.Errorf("workers=%d cell %d: collectors differ", workers, i)
			}
		}
	}
}

// TestRunCellsReuseMatchesFreshBuilds pins the sweep-level reuse
// contract: RunCellsCtx runs every cell on a per-worker engine re-targeted
// with Network.Reset, and its results must be bit-identical to building
// a fresh Network per cell. With one worker a single engine crosses
// every topology/rate boundary of the grid in sequence — the harshest
// reuse pattern. The grid run in two calls that share an Engines, the
// second re-targeting the engines the first built, matches too.
func TestRunCellsReuseMatchesFreshBuilds(t *testing.T) {
	cs := cells(23)
	var fresh []Result
	for _, c := range cs {
		n := network.MustNew(c.Config)
		n.WarmupAndMeasure(c.Warmup, c.Measure)
		fresh = append(fresh, Result{Stats: n.Stats(), End: n.Now()})
	}
	for _, workers := range []int{1, 3} {
		var engines Engines
		opts := Options{Workers: workers, Retries: 1, Engines: &engines}
		batched := RunCellsCtx(context.Background(), cells(23)[:1], opts)
		built := engines.nets[0]
		batched = append(batched, RunCellsCtx(context.Background(), cells(23)[1:], opts)...)
		if built == nil || engines.nets[0] != built {
			t.Errorf("workers=%d: the second call did not run on the engine the first built", workers)
		}
		for name, reused := range map[string][]Result{"one call": runAll(cells(23), workers), "two calls": batched} {
			for i := range fresh {
				if reused[i].End != fresh[i].End {
					t.Errorf("workers=%d, %s, cell %d: end cycle %d != fresh %d", workers, name, i, reused[i].End, fresh[i].End)
				}
				if !reflect.DeepEqual(reused[i].Stats, fresh[i].Stats) {
					t.Errorf("workers=%d, %s, cell %d: reused collector differs from fresh build", workers, name, i)
				}
			}
		}
	}
}

func TestRunCellsProducesLiveResults(t *testing.T) {
	res := runAll(cells(5), 0)
	for i, r := range res {
		if r.Stats.TotalDelivered == 0 {
			t.Errorf("cell %d delivered nothing", i)
		}
		if r.End == 0 {
			t.Errorf("cell %d reports no end cycle", i)
		}
	}
}

// TestRunCellsRecoversFailedCells pins the sweep-survival contract: a
// cell that panics deterministically (here, a watchdog-caught deadlock
// from a permanently stalled router) is retried once on a fresh engine,
// reported on Result.Err, and the surrounding cells complete normally —
// with results identical to a run that never saw the poisoned cell's
// slot state.
func TestRunCellsRecoversFailedCells(t *testing.T) {
	good := func(seed uint64) Cell {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.03)
		cfg := qos.DefaultConfig(w.TotalFlows())
		return Cell{
			Config:  network.Config{Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: seed},
			Warmup:  500,
			Measure: 2_000,
		}
	}
	bad := good(99)
	bad.Config.Faults = network.FaultConfig{
		Windows: []noc.FaultWindow{{Kind: noc.FaultRouterStall, Node: 3, From: 100}},
	}
	bad.Config.WatchdogCycles = 400

	cells := []Cell{good(1), bad, good(2)}
	res := runAll(cells, 1)
	if res[1].Err == nil {
		t.Fatal("deadlocked cell reported no error")
	}
	if res[1].Attempts != 2 {
		t.Errorf("failed cell ran %d attempts, want 2", res[1].Attempts)
	}
	if !res[1].Failed() || res[1].Stats != nil {
		t.Errorf("failed cell carries a result: %+v", res[1])
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].Stats == nil || res[i].Stats.TotalDelivered == 0 {
			t.Errorf("healthy cell %d did not survive its neighbor's failure: %+v", i, res[i])
		}
	}
	// The healthy cells must match a sweep that never contained the
	// poisoned cell (slot discard and rebuild preserves determinism).
	clean := runAll([]Cell{good(1), good(2)}, 1)
	if clean[0].Failed() || clean[1].Failed() {
		t.Fatalf("clean sweep failed: %v %v", clean[0].Err, clean[1].Err)
	}
	if clean[0].Stats.TotalDelivered != res[0].Stats.TotalDelivered ||
		clean[1].Stats.TotalDelivered != res[2].Stats.TotalDelivered {
		t.Error("failure recovery perturbed neighboring cells")
	}
}
