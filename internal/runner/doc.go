// Package runner fans independent simulations out across a worker pool.
//
// Every artifact of the paper's evaluation is a grid of fully independent
// simulation cells — (topology × rate × workload) points that each own
// their Network, seeded RNG and statistics collector — so the experiment
// drivers are embarrassingly parallel. The runner executes such a grid
// across up to GOMAXPROCS goroutines while preserving the determinism
// contract of package sim:
//
//   - Results come back in input order: cell i's result is element i of
//     the returned slice, regardless of which worker ran it or when it
//     finished.
//   - Worker count never changes results: a cell's simulation reads only
//     its own Network state, whose RNG streams are derived from the
//     cell's seed, so the output of RunCellsCtx (and Do/Map) is
//     bit-identical for every worker count, including fully sequential
//     execution. Tests assert this field-for-field.
//
// Workers selects the pool size: 0 (the usual default) means one worker
// per CPU, 1 forces sequential execution in the calling goroutine, and
// any other count caps the pool explicitly. A panic inside a Do or Map
// job is captured and re-raised on the calling goroutine once the pool
// has drained; RunCellsCtx instead reports a cell whose every attempt
// panicked on its Result, and the rest of the grid completes. Options is
// the one place a grid's retry budget, backoff and deadline are set.
package runner
