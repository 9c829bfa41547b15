package runner

import (
	"context"
	"errors"
	"testing"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// healthyCell builds one short uniform-random cell.
func healthyCell(seed uint64) Cell {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.03)
	return Cell{
		Config:  network.Config{Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: seed},
		Warmup:  500,
		Measure: 2_000,
	}
}

// wedgedCell builds a cell whose delivery hook spins at host level — no
// simulated progress stalls, no cycle budget trips, the worker just never
// comes back. The spin polls Network.Aborted, the documented contract for
// host-level loops, so the wall-clock deadline can reel it back in.
func wedgedCell(seed uint64) Cell {
	c := healthyCell(seed)
	c.Setup = func(n *network.Network) any {
		n.SetDeliveryHook(func(network.Delivery) {
			for !n.Aborted() {
			}
		})
		return nil
	}
	return c
}

// TestDeadlineKillsWedgedCell is the wall-clock acceptance contract: a
// deliberately wedged cell (host-level spin in a workload hook) is killed
// by the per-attempt deadline, retried per its budget, reported as a
// failed row — and the rest of the grid, under the same deadline, is
// unaffected.
func TestDeadlineKillsWedgedCell(t *testing.T) {
	cells := []Cell{healthyCell(1), wedgedCell(99), healthyCell(2)}
	start := time.Now()
	res := RunCellsCtx(context.Background(), cells,
		Options{Workers: 2, Retries: 1, Deadline: 150 * time.Millisecond})
	if !errors.Is(res[1].Err, ErrDeadline) {
		t.Fatalf("wedged cell error = %v, want ErrDeadline", res[1].Err)
	}
	if res[1].Attempts != 2 {
		t.Errorf("wedged cell ran %d attempts, want 2 (1 + Retries)", res[1].Attempts)
	}
	for _, i := range []int{0, 2} {
		if res[i].Err != nil || res[i].Stats == nil || res[i].Stats.TotalDelivered == 0 {
			t.Errorf("healthy cell %d did not survive the wedged neighbor: %+v", i, res[i])
		}
	}
	// Both attempts were deadline-bounded; the whole sweep must finish in
	// wall time on the order of 2 deadlines, not hang.
	if el := time.Since(start); el > 5*time.Second {
		t.Errorf("sweep took %v; deadline did not bound the wedged cell", el)
	}
}

// TestRetryBudgetExhaustion pins the configurable-retry contract: a cell
// failing deterministically runs exactly 1 + Retries attempts, and zero
// or negative Retries means a single attempt.
func TestRetryBudgetExhaustion(t *testing.T) {
	bad := healthyCell(3)
	bad.Config.Nodes = 1 // invalid: needs at least 2 nodes, panics in Reset/build
	for _, tc := range []struct {
		retries  int
		attempts int
	}{
		{retries: 0, attempts: 1},
		{retries: 2, attempts: 3},
		{retries: 3, attempts: 4},
		{retries: -1, attempts: 1},
	} {
		res := RunCellsCtx(context.Background(), []Cell{bad},
			Options{Workers: 1, Retries: tc.retries, Backoff: time.Microsecond})
		if res[0].Err == nil {
			t.Fatalf("retries=%d: invalid cell succeeded", tc.retries)
		}
		if res[0].Attempts != tc.attempts {
			t.Errorf("retries=%d: ran %d attempts, want %d", tc.retries, res[0].Attempts, tc.attempts)
		}
	}
}

// TestCancellationReturnsPartialResults pins graceful cancellation: a
// pre-cancelled context issues nothing; cancelling mid-sweep stops
// issuing but completed cells keep their results, and skipped cells are
// marked ErrSkipped with zero attempts.
func TestCancellationReturnsPartialResults(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res := RunCellsCtx(ctx, []Cell{healthyCell(1), healthyCell(2)}, Options{Workers: 2})
	for i := range res {
		if !errors.Is(res[i].Err, ErrSkipped) || res[i].Attempts != 0 {
			t.Errorf("pre-cancelled sweep cell %d: %+v, want ErrSkipped", i, res[i])
		}
	}

	// Mid-sweep: cancel from the first cell's completion callback; with
	// one worker every later cell must be skipped.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	cells := []Cell{healthyCell(1), healthyCell(2), healthyCell(3)}
	var completed int
	res = RunCellsCtx(ctx, cells, Options{
		Workers: 1,
		OnResult: func(job int, r *Result) {
			completed++
			cancel()
		},
	})
	if completed == len(cells) {
		t.Skip("all cells completed before cancellation took effect")
	}
	if res[0].Err != nil || res[0].Stats == nil {
		t.Fatalf("completed cell lost its result after cancellation: %+v", res[0])
	}
	skipped := 0
	for i := range res {
		if errors.Is(res[i].Err, ErrSkipped) {
			skipped++
		}
	}
	if skipped == 0 {
		t.Error("cancellation mid-sweep skipped nothing")
	}
	if completed+skipped != len(cells) {
		t.Errorf("completed %d + skipped %d != %d cells", completed, skipped, len(cells))
	}
}

// TestOnResultObservesEveryIssuedCell pins the checkpoint surface: the
// callback fires exactly once per issued cell, successes and failures
// both, with the final result.
func TestOnResultObservesEveryIssuedCell(t *testing.T) {
	bad := healthyCell(9)
	bad.Config.Nodes = 1
	cells := []Cell{healthyCell(1), bad, healthyCell(2)}
	seen := make([]int, len(cells))
	failed := 0
	res := RunCellsCtx(context.Background(), cells, Options{
		Workers: 1,
		OnResult: func(job int, r *Result) {
			seen[job]++
			if r.Failed() {
				failed++
			}
		},
	})
	for i, c := range seen {
		if c != 1 {
			t.Errorf("cell %d observed %d times, want 1", i, c)
		}
	}
	if failed != 1 {
		t.Errorf("observed %d failures, want 1", failed)
	}
	if res[1].Err == nil {
		t.Error("invalid cell did not fail")
	}
}
