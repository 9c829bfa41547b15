package traffic

import (
	"fmt"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

// TraceRecord is one record of a captured injection stream: at cycle At,
// the injector of flow Flow at node Src generated a packet of the given
// class for node Dst. A run's trace is the sequence of these records in
// generation order (non-decreasing cycles); internal/workload encodes
// them into the compact binary trace format and turns them back into
// replayable workloads. The engine's generation hook
// (network.SetGenHook) emits exactly this type, so a recorder is a
// one-line closure.
type TraceRecord struct {
	At    sim.Cycle
	Flow  noc.FlowID
	Src   noc.NodeID
	Dst   noc.NodeID
	Class noc.Class
}

// ReplayEvent is one scheduled generation of a replay source: emit a
// packet of the given class for Dst at cycle At. It is TraceRecord with
// the per-stream constants (flow, source node) factored out.
type ReplayEvent struct {
	At    sim.Cycle
	Dst   noc.NodeID
	Class noc.Class
}

// Replay drives one injector from a prerecorded event stream instead of a
// stochastic process: the engine emits exactly Events, in order, at their
// recorded cycles, consuming no randomness at all. A Spec with Replay set
// ignores Rate, RequestFraction, Dest, Burst and StopAt — the records are
// the complete, explicit injection stream. Replay values are read-only
// after construction and safe to share across simulation cells (each
// source keeps its own cursor).
type Replay struct {
	Events []ReplayEvent
}

// Validate checks the event stream: cycles must be non-decreasing (the
// engine's arrival schedule pops them in order) and classes valid.
func (r *Replay) Validate() error {
	var prev sim.Cycle
	for i, ev := range r.Events {
		if ev.At < prev {
			return fmt.Errorf("traffic: replay event %d at cycle %d precedes cycle %d", i, ev.At, prev)
		}
		prev = ev.At
		if ev.Class != noc.ClassRequest && ev.Class != noc.ClassReply {
			return fmt.Errorf("traffic: replay event %d has invalid class %d", i, ev.Class)
		}
		if ev.Dst < 0 {
			return fmt.Errorf("traffic: replay event %d has negative destination %d", i, ev.Dst)
		}
	}
	return nil
}
