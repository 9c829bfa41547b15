package network

import (
	"fmt"
	"strings"

	"tanoq/internal/sim"
)

// This file is the no-forward-progress watchdog: a lazy self-rescheduling
// timer (evWatchdog) armed when Config.WatchdogCycles is positive. The
// engine stamps lastProgress at every arbitration grant, every delivery,
// and the moment the network goes from no candidates to one (so a long
// legitimate idle stretch can never trip the check). When the timer fires
// with candidates still waiting and the window lapsed, the engine is
// wedged — a livelock or deadlock no event will resolve — and the
// watchdog panics with a *WatchdogError carrying a full structured dump
// of the stuck state. It keeps no copy of the injection stream: the
// engine is deterministic, so a workload.Recorder on the run (as `noctool
// trace record` attaches) holds every generation up to the trip, and
// replaying that in the same cell trips at the same cycle.

// WatchdogVC describes one occupied virtual channel in a watchdog dump.
type WatchdogVC struct {
	Buf   int    // buffer ID
	Name  string // buffer name (topology spec)
	VC    int
	Pkt   uint64 // owning packet's ID
	Flow  int
	State string
	Since sim.Cycle // the owner's enq cycle at its current position
}

// WatchdogPort describes one output port holding arbitration candidates.
type WatchdogPort struct {
	Port    int
	Name    string
	Node    int
	Waiters int
	Blocked bool // down link or stalled router at dump time
}

// WatchdogSource describes one injector with pending or outstanding work.
type WatchdogSource struct {
	Idx       int
	Node      int
	Flow      int
	Queue     int // generated, not yet injected
	Retx      int // awaiting retransmission
	Window    int // injected, unacknowledged
	Offering  bool
	BusyUntil sim.Cycle
}

// WatchdogReport is the structured diagnostic state captured when the
// no-forward-progress watchdog trips.
type WatchdogReport struct {
	// At is the cycle the watchdog fired; LastProgress the last grant,
	// delivery or idle-to-pending transition; Window the configured
	// no-progress budget.
	At           sim.Cycle
	LastProgress sim.Cycle
	Window       sim.Cycle

	InFlight      int
	Waiters       int
	PendingEvents int
	// NextEventAt is the cycle of the earliest pending event;
	// HasNextEvent false means no event is pending.
	NextEventAt  sim.Cycle
	HasNextEvent bool

	// ArenaLive/ArenaFree census the packet arena (live excludes the
	// permanent slot-0 dummy). Live slots are the offered and in-network
	// packets, each source's minted queue head included; the queued
	// backlog (WatchdogSource.Queue) holds none.
	ArenaLive int
	ArenaFree int

	// DownPorts/StalledNodes are the fault state in effect at dump time.
	DownPorts    []int
	StalledNodes []int

	VCs     []WatchdogVC
	Ports   []WatchdogPort
	Sources []WatchdogSource
}

// WatchdogError is the panic value of a tripped watchdog.
type WatchdogError struct {
	Report WatchdogReport
}

func (e *WatchdogError) Error() string {
	r := &e.Report
	return fmt.Sprintf("network: no forward progress for %d cycles (cycle %d, last progress %d): %d waiting, %d in flight",
		r.At-r.LastProgress, r.At, r.LastProgress, r.Waiters, r.InFlight)
}

// String renders the full dump, one line per stuck resource.
func (r *WatchdogReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "watchdog: stuck at cycle %d (last progress %d, window %d)\n", r.At, r.LastProgress, r.Window)
	fmt.Fprintf(&b, "  in-flight %d, waiters %d, pending events %d", r.InFlight, r.Waiters, r.PendingEvents)
	if r.HasNextEvent {
		fmt.Fprintf(&b, " (next at %d)", r.NextEventAt)
	}
	fmt.Fprintf(&b, "\n  arena: %d live, %d free\n", r.ArenaLive, r.ArenaFree)
	if len(r.DownPorts) > 0 {
		fmt.Fprintf(&b, "  down ports: %v\n", r.DownPorts)
	}
	if len(r.StalledNodes) > 0 {
		fmt.Fprintf(&b, "  stalled nodes: %v\n", r.StalledNodes)
	}
	for _, p := range r.Ports {
		fmt.Fprintf(&b, "  port %d %s (node %d): %d waiting", p.Port, p.Name, p.Node, p.Waiters)
		if p.Blocked {
			b.WriteString(" [blocked]")
		}
		b.WriteByte('\n')
	}
	for _, v := range r.VCs {
		fmt.Fprintf(&b, "  buf %d %s vc %d: pkt %d flow %d %s since %d\n", v.Buf, v.Name, v.VC, v.Pkt, v.Flow, v.State, v.Since)
	}
	for _, s := range r.Sources {
		fmt.Fprintf(&b, "  src %d (node %d, flow %d): queue %d, retx %d, window %d, offering %v, busy until %d\n",
			s.Idx, s.Node, s.Flow, s.Queue, s.Retx, s.Window, s.Offering, s.BusyUntil)
	}
	return strings.TrimSuffix(b.String(), "\n")
}

// onWatchdog fires the watchdog timer: trip if candidates have been
// waiting past the window with no grant or delivery, otherwise reschedule
// against the latest progress stamp. The timer is lazy — it never fires
// more than once per window — so an armed watchdog costs one event per
// window, not per cycle.
func (n *Network) onWatchdog(now sim.Cycle) {
	n.sysEvents--
	if n.waiterCount > 0 && now-n.lastProgress >= n.wdWindow {
		n.mark(MarkWatchdogTrip, -1, now)
		panic(&WatchdogError{Report: n.watchdogReport(now)})
	}
	next := n.lastProgress + n.wdWindow
	if next <= now {
		next = now + n.wdWindow
	}
	n.sysEvents++
	n.schedule(&event{kind: evWatchdog}, next, now)
}

func (s pktState) String() string {
	switch s {
	case stAtSource:
		return "at-source"
	case stWaiting:
		return "waiting"
	case stMoving:
		return "moving"
	case stDelivered:
		return "delivered"
	case stDead:
		return "dead"
	}
	return "unknown"
}

// watchdogReport captures the engine's stuck state.
func (n *Network) watchdogReport(now sim.Cycle) WatchdogReport {
	r := WatchdogReport{
		At:           now,
		LastProgress: n.lastProgress,
		Window:       n.wdWindow,
		InFlight:     n.inFlight,
		Waiters:      n.waiterCount,
		ArenaLive:    len(n.arena) - 1 - len(n.free),
		ArenaFree:    len(n.free),
	}
	// The watchdog's own pending timer was consumed before this capture.
	r.PendingEvents = n.events.Len()
	if r.HasNextEvent = r.PendingEvents > 0; r.HasNextEvent {
		r.NextEventAt = neverCycle
		if len(n.events.late) > 0 {
			r.NextEventAt = now
		}
		n.events.census(now, nil, func(at sim.Cycle, _ *event) { r.NextEventAt = min(r.NextEventAt, at) })
	}
	if n.fltOn {
		for i := range n.ports {
			if testBit(n.fltDown, i) {
				r.DownPorts = append(r.DownPorts, i)
			}
		}
		for i := 0; i < n.cfg.Nodes; i++ {
			if testBit(n.fltStall, i) {
				r.StalledNodes = append(r.StalledNodes, i)
			}
		}
	}
	for pi := range n.ports {
		port := &n.ports[pi]
		if len(port.waiters) == 0 {
			continue
		}
		blocked := n.fltOn && n.portBlocked(port)
		r.Ports = append(r.Ports, WatchdogPort{
			Port: pi, Name: port.spec.Name, Node: port.spec.Node,
			Waiters: len(port.waiters), Blocked: blocked,
		})
	}
	for bi := range n.bufs {
		b := &n.bufs[bi]
		for i := int32(0); i < b.nvc; i++ {
			h := b.owner[i]
			if h == noPkt {
				continue
			}
			p := &n.arena[h]
			r.VCs = append(r.VCs, WatchdogVC{
				Buf: bi, Name: b.spec.Name, VC: int(i),
				Pkt: p.ID, Flow: int(p.Flow), State: p.state.String(), Since: p.enq,
			})
		}
	}
	for si := range n.srcs {
		s := &n.srcs[si]
		if s.queue.len() == 0 && s.retx.len() == 0 && s.window == 0 && s.offering == noPkt {
			continue
		}
		r.Sources = append(r.Sources, WatchdogSource{
			Idx: si, Node: int(s.spec.Node), Flow: int(s.spec.Flow),
			Queue: s.queue.len(), Retx: s.retx.len(), Window: s.window,
			Offering: s.offering != noPkt, BusyUntil: s.busyUntil,
		})
	}
	return r
}
