package network

import (
	"fmt"
	"sync/atomic"

	"tanoq/internal/sim"
)

// This file is the engine's cooperative-abort surface. The cycle-based
// watchdog (watchdog.go) catches simulations that stop making *simulated*
// progress, but a cell can also wedge at the host level — a workload hook
// spinning, a pathological configuration whose cycles are legal but
// crawl — without ever tripping a cycle budget. For that, a runner arms a
// wall-clock deadline: it installs an atomic abort flag, flips it from a
// timer goroutine, and the engine panics with *AbortError at the next
// cycle boundary. The check is a nil-pointer test on the hot loop — zero
// atomics, zero allocations and bit-identical results when no flag is
// installed — and hooks can poll Aborted() to bail out of their own
// host-level loops.

// AbortError is the panic value raised when an installed abort flag is
// observed set: the engine stopped at a cycle boundary with its collector
// state consistent but the run incomplete. Runners convert it into a
// per-cell error (a deadline kill, a cancelled sweep) instead of a dead
// process.
type AbortError struct {
	// Cycle is the simulation cycle at which the abort was observed.
	Cycle sim.Cycle
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("network: run aborted at cycle %d (wall-clock deadline or cancellation)", e.Cycle)
}

// SetAbort installs an external abort flag (nil uninstalls). Once the
// flag is set — typically by a time.AfterFunc deadline timer or a sweep
// cancellation path on another goroutine — the next Run/RunUntilDrained
// iteration panics with *AbortError. Reset uninstalls the flag, so a
// stale timer from a previous cell can never abort its slot's next cell.
func (n *Network) SetAbort(flag *atomic.Bool) { n.abortFlag = flag }

// Aborted reports whether an installed abort flag has been set. Workload
// hooks that loop at host level should poll it so a wall-clock deadline
// can interrupt them too. No hook in this module loops that way; the
// method stays exported because runner.RunCellsCtx's deadline contract
// promises it to any hook that does.
func (n *Network) Aborted() bool { return n.abortFlag != nil && n.abortFlag.Load() }

// checkAbort panics with *AbortError when the installed flag is set; the
// common no-flag case is a single nil check.
func (n *Network) checkAbort(now sim.Cycle) {
	if n.abortFlag != nil && n.abortFlag.Load() {
		panic(&AbortError{Cycle: now})
	}
}
