package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
)

// Cell is one independent simulation: a network configuration plus its
// warmup/measurement schedule. Each cell builds and owns a private
// Network, so cells never share mutable state.
type Cell struct {
	Config network.Config
	// Warmup cycles run with measurement paused; Measure cycles follow
	// with the collector live (Network.WarmupAndMeasure).
	Warmup  int
	Measure int
	// Setup, when non-nil, runs after the cell's network is built or
	// reset and before warmup. It attaches auxiliary drivers — a
	// closed-loop client controller, a trace recorder — to the fresh
	// network (Network.Reset clears workload hooks precisely so that a
	// cell without Setup inherits nothing from its slot's previous
	// cell). Whatever it returns is surfaced on Result.Aux. Setup runs
	// on the worker goroutine and must touch only per-cell state.
	Setup func(*network.Network) any
}

// Result is the outcome of one cell.
type Result struct {
	// Stats is the cell's measurement collector, owned by the caller
	// once RunCellsCtx returns. Nil when the cell failed (see Err).
	Stats *stats.Collector
	// End is the simulation cycle at the end of the measurement window
	// (the `now` argument of rate metrics such as AcceptedFlitRate).
	End sim.Cycle
	// Aux is whatever the cell's Setup returned (nil without one) —
	// typically the attached driver, read back for its statistics.
	Aux any
	// Err reports a cell that produced no result: every attempt panicked
	// (an invalid configuration, a tripped watchdog, a failed invariant
	// audit), every attempt missed its wall-clock deadline (ErrDeadline),
	// or the sweep was cancelled before the cell was issued (ErrSkipped).
	// A failed cell does not abort the rest of the sweep.
	Err error
	// Attempts is how many times the cell ran (1 normally, more after
	// retries, 0 when cancellation skipped it entirely).
	Attempts int
	// Elapsed is the wall-clock time the successful attempt spent
	// simulating (the WarmupAndMeasure call). Zero for failed cells.
	Elapsed time.Duration
	// Worker is the worker-slot index that produced the result (-1 for
	// cells skipped before any worker claimed them) — per-worker
	// throughput attribution for live sweep metrics. Purely
	// observational: results are bit-identical for every worker count.
	Worker int
}

// Failed reports whether the cell produced no result.
func (r *Result) Failed() bool { return r.Err != nil }

// ErrDeadline marks an attempt killed by its wall-clock deadline.
var ErrDeadline = errors.New("wall-clock deadline exceeded")

// ErrSkipped marks a cell never issued because the sweep's context was
// cancelled first. Its Result carries Attempts == 0 and no stats.
var ErrSkipped = errors.New("cell skipped: sweep cancelled")

// Workers resolves a requested worker count: n <= 0 selects one worker
// per CPU (GOMAXPROCS), anything else is used as given.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Do executes fn(i) for every i in [0, jobs) across a pool of workers.
// Jobs are claimed from a shared atomic counter, so long and short cells
// interleave without static partitioning imbalance. fn must not touch
// state shared with other jobs. A panic in any job is re-raised on the
// calling goroutine after all workers have stopped.
func Do(jobs, workers int, fn func(job int)) {
	DoWorkerCtx(context.Background(), jobs, workers, func(job, _ int) { fn(job) })
}

// DoWorkerCtx is Do with the worker's pool slot passed alongside the job
// index, fn(job, worker) with worker in [0, effective workers), and with
// cooperative cancellation. All jobs run by the same worker share its
// slot, which is what lets callers keep per-worker reusable state
// (runner cells reuse one simulation engine per slot via Network.Reset)
// without any locking — a slot never runs two jobs concurrently. Once
// ctx is done, workers stop claiming new jobs, but jobs already claimed
// run to completion — a drain, not a kill. Jobs never issued are simply
// never run; callers that need to know which ones must track it
// themselves (RunCellsCtx marks them ErrSkipped via Attempts == 0).
func DoWorkerCtx(ctx context.Context, jobs, workers int, fn func(job, worker int)) {
	if jobs <= 0 {
		return
	}
	workers = Workers(workers)
	if workers > jobs {
		workers = jobs
	}
	if workers <= 1 {
		for i := 0; i < jobs; i++ {
			if ctx.Err() != nil {
				return
			}
			fn(i, 0)
		}
		return
	}

	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Pointer[panicValue]
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			for panicked.Load() == nil && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= jobs {
					return
				}
				runJob(i, slot, fn, &panicked)
			}
		}(w)
	}
	wg.Wait()
	if pv := panicked.Load(); pv != nil {
		panic(pv.v)
	}
}

// panicValue boxes a recovered panic so it can travel through an atomic
// pointer back to the calling goroutine.
type panicValue struct{ v any }

// runJob runs one job, converting a panic into a recorded first-panic so
// the pool can drain instead of crashing the process from a worker.
func runJob(i, slot int, fn func(int, int), panicked *atomic.Pointer[panicValue]) {
	defer func() {
		if r := recover(); r != nil {
			panicked.CompareAndSwap(nil, &panicValue{v: r})
		}
	}()
	fn(i, slot)
}

// Map runs fn over [0, jobs) like Do and collects the results in input
// order: element i of the returned slice is fn(i), regardless of worker
// count or completion order.
func Map[T any](jobs, workers int, fn func(job int) T) []T {
	out := make([]T, jobs)
	Do(jobs, workers, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Options tunes RunCellsCtx; it is the only place a cell's failure
// budget is set. The zero value means: one worker per CPU, no retries,
// no backoff, no deadline.
type Options struct {
	// Workers is the pool size (see Workers).
	Workers int
	// Retries is how many times a failed attempt (invalid configuration,
	// tripped watchdog, failed audit, missed deadline) is re-run on a
	// freshly built network before the cell is reported failed; 0 or
	// negative means never.
	Retries int
	// Backoff is the base delay slept before the first retry; each later
	// retry doubles it (capped at 30s). 0 = none.
	Backoff time.Duration
	// Deadline is each attempt's wall-clock budget. When it expires the
	// engine is aborted at the next cycle boundary and the attempt fails
	// with ErrDeadline. It complements the cycle-based watchdog: the
	// watchdog catches stalled simulated progress, the deadline catches
	// host-level livelock — a wedged workload hook, a pathological cell
	// that crawls in wall time. 0 = unlimited.
	Deadline time.Duration
	// OnResult, when non-nil, observes every finished cell — success or
	// failure — as soon as its result lands, on the worker goroutine
	// that ran it. This is the checkpoint surface: a durable sweep
	// persists each row the moment it exists, so an interrupted process
	// loses at most its in-flight cells. It must be safe for concurrent
	// calls from different workers; cells skipped by cancellation are
	// NOT reported through it.
	//
	// OnResult owns r.Stats and r.Aux: it may clear them once it has
	// read them, and the slice RunCellsCtx returns then holds nil there.
	// A sweep that keeps only a row per cell frees each collector as its
	// row exists instead of holding every one until the grid ends.
	OnResult func(job int, r *Result)
}

// maxBackoff caps the exponential retry delay.
const maxBackoff = 30 * time.Second

// RunCellsCtx executes every cell across the worker pool and returns the
// results in input order, with per-attempt wall-clock deadlines, a retry
// budget with exponential backoff, an OnResult checkpoint callback, and
// cooperative cancellation. Each worker slot keeps one reusable Network:
// the first cell a slot runs builds it, and every later cell re-targets
// it in place via Network.Reset, so a whole sweep grid reuses one packet
// arena, event ring and router state per worker instead of reallocating
// them per cell. Because each cell's randomness derives entirely from
// its own Config.Seed — and a Reset network is bit-identical to a
// freshly built one — the results are bit-identical for every worker
// count and identical to building each cell from scratch.
//
// A cell that fails an attempt — a panic (invalid configuration, tripped
// watchdog, failed invariant audit) or a missed deadline — does not take
// the sweep down: the slot's engine (possibly corrupted mid-simulation)
// is discarded, the cell is retried on a freshly built network up to its
// retry budget, and the final failure is reported on Result.Err with the
// rest of the grid unaffected. Deadlines are enforced by arming the
// engine's cooperative abort flag from a timer (network.SetAbort): the
// run dies at the next cycle boundary, and host-level loops in workload
// hooks are expected to poll Network.Aborted.
//
// Once ctx is cancelled, no new cells are issued; in-flight cells drain
// to completion (their results are still reported and checkpointed), and
// every never-issued cell comes back with Err == ErrSkipped and
// Attempts == 0 — partial results, not a dead sweep.
func RunCellsCtx(ctx context.Context, cells []Cell, opts Options) []Result {
	return RunEachCtx(ctx, len(cells), func(i int) Cell { return cells[i] }, opts)
}

// RunEachCtx is RunCellsCtx over n cells that exist only as a builder:
// cell(i) is called once, on the worker that claims cell i, and its
// result lives only while that cell runs. A sweep grid hands its cells
// over this way, so it holds points rather than one network.Config per
// cell. cell must be safe for concurrent calls.
func RunEachCtx(ctx context.Context, n int, cell func(int) Cell, opts Options) []Result {
	out := make([]Result, n)
	slots := make([]*network.Network, Workers(opts.Workers))
	DoWorkerCtx(ctx, n, opts.Workers, func(i, slot int) {
		c := cell(i)
		runSingle(&slots[slot], &c, &opts, i, slot, out)
	})
	for i := range out {
		if out[i].Attempts == 0 {
			out[i] = Result{Err: ErrSkipped, Worker: -1}
		}
	}
	return out
}

// runSingle runs one cell through its full attempt loop on the slot's
// engine, landing the result (and the OnResult checkpoint) for cell
// index i.
func runSingle(slotNet **network.Network, c *Cell, opts *Options, i, worker int, out []Result) {
	for attempt := 1; ; attempt++ {
		res, err := runCell(slotNet, c, opts.Deadline)
		res.Attempts = attempt
		res.Worker = worker
		if err == nil {
			out[i] = res
			break
		}
		// The engine may have died mid-simulation; its state is not
		// trustworthy for a Reset. Rebuild from scratch.
		*slotNet = nil
		if attempt > opts.Retries {
			out[i] = Result{Err: err, Attempts: attempt, Worker: worker}
			break
		}
		if opts.Backoff > 0 {
			d := opts.Backoff << (attempt - 1)
			if d > maxBackoff || d <= 0 {
				d = maxBackoff
			}
			time.Sleep(d)
		}
	}
	if opts.OnResult != nil {
		opts.OnResult(i, &out[i])
	}
}

// runCell runs one attempt of a cell on the slot's engine (building or
// resetting it), converting any panic into an error so a failed cell is
// a reportable result instead of a dead sweep. A positive deadline arms
// a wall-clock timer that aborts the engine cooperatively; the resulting
// *network.AbortError panic is reported as ErrDeadline.
func runCell(slot **network.Network, c *Cell, deadline time.Duration) (res Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			if abort, ok := r.(*network.AbortError); ok {
				err = fmt.Errorf("%w after %v (aborted at cycle %d)", ErrDeadline, deadline, abort.Cycle)
			} else if e, ok := r.(error); ok {
				err = fmt.Errorf("cell panicked: %w", e)
			} else {
				err = fmt.Errorf("cell panicked: %v", r)
			}
		}
	}()
	n := *slot
	if n == nil {
		n = network.MustNew(c.Config)
		*slot = n
	} else if rerr := n.Reset(c.Config); rerr != nil {
		panic(rerr)
	}
	if deadline > 0 {
		var flag atomic.Bool
		n.SetAbort(&flag)
		timer := time.AfterFunc(deadline, func() { flag.Store(true) })
		defer timer.Stop()
	}
	var aux any
	if c.Setup != nil {
		aux = c.Setup(n)
	}
	t0 := time.Now()
	n.WarmupAndMeasure(c.Warmup, c.Measure)
	return Result{Stats: n.Stats(), End: n.Now(), Aux: aux, Elapsed: time.Since(t0)}, nil
}
