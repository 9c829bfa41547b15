package network

import "tanoq/internal/sim"

// Telemetry probe surface. A probe is a periodic bookkeeping event on
// the event wheel — scheduled exactly like a fault window edge or the
// watchdog timer — whose handler only *reads* engine state. Putting the
// sampling tick on the wheel (instead of, say, checking a modulus in
// Step) buys three properties at once: the idle-skip horizon covers the
// next sample automatically (the run loop's horizon covers every wheel, so
// a fast-forwarded run wakes exactly at every tick), sysEvents
// accounting keeps a pending probe from holding a drained network
// alive, and the tick sequence is a pure function of the interval —
// bit-identical across worker counts and skip on/off.
// The telemetry package builds its Sampler on top of this surface; the
// engine itself stores only two words and a function value, all cleared
// by Reset like every other per-cell attachment.

// MarkKind labels a phase-transition annotation emitted to the mark
// hook alongside probe samples.
type MarkKind uint8

const (
	// MarkMeasureStart is the warmup/measure boundary: the collector
	// was just reset, so cumulative counters restart from zero.
	MarkMeasureStart MarkKind = iota
	// MarkFaultStrike and MarkFaultHeal are fault window edges; Arg is
	// the window index into Config.Faults.Windows.
	MarkFaultStrike
	MarkFaultHeal
	// MarkWatchdogTrip fires just before the no-forward-progress
	// watchdog panics with its diagnostic report.
	MarkWatchdogTrip
)

// String returns the mark's wire name (constant strings — the call
// never allocates).
func (k MarkKind) String() string {
	switch k {
	case MarkMeasureStart:
		return "measure-start"
	case MarkFaultStrike:
		return "fault-strike"
	case MarkFaultHeal:
		return "fault-heal"
	case MarkWatchdogTrip:
		return "watchdog-trip"
	}
	return "unknown"
}

// ProbeMark is one phase annotation: a point in simulated time where
// the run changed regime. Arg carries a kind-specific index (the fault
// window for strike/heal edges) and is -1 otherwise.
type ProbeMark struct {
	At   sim.Cycle
	Kind MarkKind
	Arg  int32
}

// SetProbe installs a periodic telemetry probe: fn fires every `every`
// cycles of simulated time, starting one interval from now. The probe
// rides the event wheel as a system event, so instrumented runs stay
// bit-identical to uninstrumented ones (the handler must only read
// state) and idle-skip horizons remain exact. Like the workload hooks,
// the probe is a per-cell attachment: Reset clears it, and the caller
// re-installs after each Reset. One probe per network.
func (n *Network) SetProbe(every sim.Cycle, fn func(now sim.Cycle)) {
	if every <= 0 {
		panic("network: probe interval must be positive")
	}
	if n.probeFn != nil {
		panic("network: a probe is already installed")
	}
	n.probeFn = fn
	n.probeEvery = every
	now := n.clock.Now()
	n.sysEvents++
	n.schedule(&event{kind: evProbe}, now+every, now)
}

// SetMarkHook installs the phase-mark observer: it fires at the
// warmup/measure boundary, on fault window edges, and on a watchdog
// trip. Cleared by Reset alongside the probe.
func (n *Network) SetMarkHook(fn func(ProbeMark)) { n.markFn = fn }

// onProbe fires one sampling tick and re-arms the next. The decrement/
// increment pair keeps sysEvents balanced, so idle() still recognizes a
// drained network with a pending probe, and an uninstalled probe (the
// hook was cleared mid-flight) simply lets the tick chain die.
func (n *Network) onProbe(now sim.Cycle) {
	n.sysEvents--
	if n.probeFn == nil {
		return
	}
	n.probeFn(now)
	n.sysEvents++
	n.schedule(&event{kind: evProbe}, now+n.probeEvery, now)
}

// mark emits one phase annotation to the installed hook, if any.
func (n *Network) mark(kind MarkKind, arg int32, at sim.Cycle) {
	if n.markFn != nil {
		n.markFn(ProbeMark{At: at, Kind: kind, Arg: arg})
	}
}

// FillVCOccupancy adds each input buffer's occupied-VC count into
// dst[node] and returns the network-wide total. Buffers whose node
// falls outside dst are still counted in the total, so a nil dst is a
// cheap "total only" query. The walk is read-only and allocation-free —
// safe from inside a probe handler.
func (n *Network) FillVCOccupancy(dst []int32) int64 {
	var total int64
	for i := range n.bufs {
		b := &n.bufs[i]
		if node := b.spec.Node; node >= 0 && node < len(dst) {
			dst[node] += b.occupied
		}
		total += int64(b.occupied)
	}
	return total
}

// FillVCCapacities adds each input buffer's VC pool size into
// dst[node] — the static normalization row for an occupancy heatmap.
func (n *Network) FillVCCapacities(dst []int32) {
	for i := range n.bufs {
		b := &n.bufs[i]
		if node := b.spec.Node; node >= 0 && node < len(dst) {
			dst[node] += b.nvc
		}
	}
}
