package network

import (
	"math"
	"unsafe"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/traffic"
)

// source is one traffic injector: a terminal port or a MECS row input at a
// column node. It owns the single injection VC (packets enter the network
// one at a time), the PVC retransmission window (unACKed packets stay
// buffered for replay) and the retransmission queue fed by NACKs.
//
// Sources live by value in the network's flat source array and are not
// scanned per cycle. Generation is driven by the network's arrival wheel
// (a source is touched only on its precomputed arrival cycles), and
// offering by the offerable list (a source is touched only while it
// actually holds an injectable packet).
type source struct {
	spec traffic.Spec
	// rng is the source's private stream, held by value: one fewer
	// indirection per draw, and reuse re-seeds it in place.
	rng sim.RNG
	// idx is the source's position in the workload spec order; it breaks
	// same-cycle ties in the arrival wheel and orders the offerable list,
	// keeping both deterministic and identical to the historical
	// all-sources scan order.
	idx int32
	// inOffer marks membership in the network's offerable list.
	inOffer bool

	// queue holds freshly generated packets awaiting first injection
	// (unbounded: offered load beyond acceptance shows up as source
	// queueing delay, the classic latency-throughput hockey stick). Its
	// entries are pending records, not arena slots, so a saturated
	// backlog costs 32 bytes a packet and nothing the GC scans.
	queue fifo[pending]
	// minted is the arena slot offer made for the queue head, noPkt until
	// then. It outlives a fault withdrawal — the next offer re-offers the
	// same packet — and is cleared when the head is injected or dropped
	// as unroutable.
	minted pktH
	// retx holds preempted packets awaiting re-injection; they are
	// replayed ahead of new traffic and already occupy window slots.
	retx fifo[pktH]
	// offering is the packet currently registered as a first-leg
	// arbitration candidate (the injection VC); noPkt when none.
	offering pktH
	// window counts injected-but-unACKed packets.
	window int
	// busyUntil serializes the injection VC: the next packet may only
	// be offered after the previous one's tail left the source router.
	busyUntil sim.Cycle
	// replica round-robins packets across replicated mesh channels.
	replica int

	// arr draws packet inter-arrival gaps (traffic.ArrivalSampler): one
	// geometric draw per packet for smooth specs, reproducing the modeled
	// per-cycle Bernoulli process exactly, plus on/off window walking for
	// bursty MMPP-style specs. nextArrival is the precomputed cycle of
	// the next packet — the cycle the arrival wheel holds the source at.
	arr         traffic.ArrivalSampler
	nextArrival sim.Cycle

	// replay/replayPos drive trace-replay generation (spec.Replay set):
	// nextArrival walks the recorded event cycles and generation emits
	// the records verbatim, consuming no randomness. Unlike sampled
	// arrivals, recorded cycles may repeat (a server source can generate
	// two same-cycle replies), which the arrival loop already handles.
	replay    *traffic.Replay
	replayPos int32

	generated int64
	injected  int64
}

// reinit configures the source in place for a fresh simulation, splitting
// its private RNG stream off the network RNG exactly as the historical
// per-source constructor did, and reusing the queue backing arrays.
func (s *source) reinit(netRNG *sim.RNG, spec traffic.Spec, idx int32) {
	s.spec = spec
	netRNG.SplitInto(&s.rng)
	s.idx = idx
	s.inOffer = false
	s.queue.reset()
	s.retx.reset()
	s.minted = noPkt
	s.offering = noPkt
	s.window = 0
	s.busyUntil = 0
	s.replica = 0
	s.generated = 0
	s.injected = 0
	s.nextArrival = 0
	s.replay = spec.Replay
	s.replayPos = 0
	if s.replay != nil {
		s.arr = traffic.ArrivalSampler{} // inactive; records drive generation
		if len(s.replay.Events) > 0 {
			s.nextArrival = s.replay.Events[0].At
		}
		return
	}
	s.arr = spec.NewArrivalSampler(&s.rng)
	if s.arr.Active() {
		// The first arrival lands at gap-1 so that cycle 0 succeeds with
		// the per-cycle packet probability, exactly like the first
		// Bernoulli trial.
		s.nextArrival = s.arr.NextGap(&s.rng) - 1
	}
}

// maxNodes bounds the column height: a pending record stores its
// destination in 16 bits.
const maxNodes = math.MaxInt16

// pending is a generated packet that has not yet been offered: the
// values fixed at generation, and nothing else. offer mints the arena
// slot from it (newPacket) only when the record reaches the queue head,
// so the arena holds offered and in-network packets while the backlog
// behind them stays in these pointer-free 32-byte records. The ID is
// drawn at generation, keeping every (Created, ID) tie-break unchanged.
type pending struct {
	id      uint64
	created sim.Cycle
	parent  uint64
	flow    int32
	dst     int16 // Reset caps the column at maxNodes
	class   noc.Class
	kind    noc.PacketKind
}

// fifo is an allocation-amortizing FIFO: pops advance a head index
// instead of reslicing away the backing array's front capacity (the
// `q = q[1:]` idiom makes every later append reallocate), the array is
// rewound whenever the queue drains, and a long-lived saturated queue is
// compacted in place once the dead prefix dominates. Both element types
// (pending records, packet handles) are pointer-free, so the queue is
// invisible to the garbage collector.
type fifo[T any] struct {
	items []T
	head  int
}

func (q *fifo[T]) len() int    { return len(q.items) - q.head }
func (q *fifo[T]) empty() bool { return q.head >= len(q.items) }
func (q *fifo[T]) first() T    { return q.items[q.head] }

// reset empties the queue, keeping its backing array; a first reset
// pre-sizes it to srcQueueBytes of elements.
func (q *fifo[T]) reset() {
	if q.items == nil {
		var zero T
		q.items = make([]T, 0, srcQueueBytes/int(unsafe.Sizeof(zero)))
	}
	q.items = q.items[:0]
	q.head = 0
}

func (q *fifo[T]) push(v T) { q.items = append(q.items, v) }

func (q *fifo[T]) pop() {
	q.head++
	switch {
	case q.head == len(q.items):
		q.items = q.items[:0]
		q.head = 0
	case q.head >= 64 && q.head*2 >= len(q.items):
		n := copy(q.items, q.items[q.head:])
		q.items = q.items[:n]
		q.head = 0
	}
}

// enqueue appends a freshly generated packet to the source's backlog,
// drawing its ID now so IDs follow generation order.
func (n *Network) enqueue(s *source, flow noc.FlowID, dst noc.NodeID, class noc.Class, kind noc.PacketKind, parent uint64, t sim.Cycle) {
	n.nextPktID++
	s.queue.push(pending{
		id: n.nextPktID, created: t, parent: parent,
		flow: int32(flow), dst: int16(dst), class: class, kind: kind,
	})
	s.generated++
	if n.genHook != nil {
		n.genHook(traffic.TraceRecord{At: t, Flow: flow, Src: s.spec.Node, Dst: dst, Class: class})
	}
	n.markOfferable(s)
}

// generate emits the precomputed arrival — the engine's arrival wheel only
// pops a source on exactly its arrival cycle — then draws the next
// inter-arrival gap from the spec's arrival sampler (geometric for smooth
// specs, on/off-window modulated for bursty ones), so the emitted packet
// stream is statistically identical to per-cycle sampling of the modeled
// process at ~one RNG draw per packet, and off-arrival cycles never touch
// the source at all. Destination selection delegates to the spec's Dest
// pattern; both calls are allocation-free.
func (n *Network) generate(s *source, t sim.Cycle) {
	if s.replay != nil {
		n.generateReplay(s, t)
		return
	}
	class := noc.ClassReply
	if s.rng.Bernoulli(s.spec.RequestFraction) {
		class = noc.ClassRequest
	}
	dst := s.spec.Dest.Pick(&s.rng)
	n.enqueue(s, s.spec.Flow, dst, class, noc.KindOpen, 0, t)
	// Gaps are >= 1, so arrivals never bunch within a cycle and
	// nextArrival strictly advances.
	s.nextArrival = t + s.arr.NextGap(&s.rng)
}

// generateReplay emits the source's next recorded event verbatim — the
// replay counterpart of generate, consuming no randomness. Re-recording a
// replayed run (the gen hook below) reproduces the trace.
func (n *Network) generateReplay(s *source, t sim.Cycle) {
	ev := s.replay.Events[s.replayPos]
	s.replayPos++
	n.enqueue(s, s.spec.Flow, ev.Dst, ev.Class, noc.KindOpen, 0, t)
	if int(s.replayPos) < len(s.replay.Events) {
		s.nextArrival = s.replay.Events[s.replayPos].At
	}
}

// offer registers the next injectable packet as a first-leg arbitration
// candidate. Retransmissions go first and already hold window slots; new
// packets need a free slot in the outstanding-packet window (PVC mode).
// With permanent link faults in effect, the route deterministically
// avoids dead ports (probing replica channels in round-robin order), and
// a destination no replica reaches is dropped as unroutable — the loop
// then considers the next queued packet.
func (n *Network) offer(s *source, t sim.Cycle) {
	if s.offering != noPkt || t < s.busyUntil {
		return
	}
	for {
		var h pktH
		fromRetx := false
		switch {
		case !s.retx.empty():
			h = s.retx.first()
			fromRetx = true
		case !s.queue.empty():
			if n.windowCapped(s) {
				return
			}
			if s.minted == noPkt {
				s.minted = n.newPacket(s, s.queue.first())
			}
			h = s.minted
		default:
			return
		}
		p := &n.arena[h]
		// (Re)compute the path; a retransmission may take a different
		// replica channel.
		p.legs = n.graph.Path(p.Src, p.Dst, s.replica)
		s.replica++
		if n.fltHasDead && n.legsCrossDead(p.legs, 0) && !n.reroute(s, p) {
			if fromRetx {
				s.retx.pop()
				n.abandon(h)
			} else {
				s.queue.pop()
				s.minted = noPkt
				n.coll.Dropped(p.Flow)
				p.state = stDead
				n.recycle(h)
			}
			continue
		}
		// Rate compliance: the first rate x frame flits a source sends in a
		// frame are protected. A retransmission may gain protection if the
		// frame rolled over since the original attempt.
		if n.quota != nil && !p.Reserved {
			p.Reserved = n.quota.TryConsume(p.Flow, p.Size)
		}
		p.state = stAtSource
		p.enq = t
		s.offering = h
		n.register(&n.ports[p.legs[0].Out], h)
		return
	}
}

// onInjected is called when the offered packet wins first-leg arbitration:
// it leaves the source queue and occupies a window slot.
func (n *Network) onInjected(s *source, h pktH, tailDeparture sim.Cycle, now sim.Cycle) {
	if s.offering != h {
		panic("network: injected packet was not the offered one")
	}
	s.offering = noPkt
	if !s.retx.empty() && s.retx.first() == h {
		s.retx.pop()
	} else {
		s.queue.pop()
		s.minted = noPkt
		s.window++
		n.inFlight++
	}
	s.busyUntil = tailDeparture
	s.injected++
	p := &n.arena[h]
	p.Injected = now
	n.coll.Injected(p.Size)
	// Each injection invalidates the previous attempt's delivery timer
	// (the timer event carries the sequence it was armed for) and arms a
	// fresh one when end-to-end recovery is configured.
	p.retrySeq++
	if n.retryTimeout > 0 {
		n.armRetryTimer(h, p, now)
	}
	// Any remaining backlog goes back on the offerable list, to be
	// offered once the injection VC frees at busyUntil.
	n.markOfferable(s)
}

// onAck frees the window slot of a delivered packet. A window-capped
// source with a backlog becomes offerable again here.
func (n *Network) onAck(s *source) {
	s.window--
	if s.window < 0 {
		panic("network: ACK without outstanding packet")
	}
	n.markOfferable(s)
}

// onNack queues a preempted packet for retransmission. The packet keeps
// its window slot — it is still unacknowledged.
func (n *Network) onNack(s *source, h pktH) {
	p := &n.arena[h]
	p.nackPending = false
	p.state = stAtSource
	s.retx.push(h)
	n.markOfferable(s)
}

// windowCapped reports whether the source cannot inject anything until an
// ACK frees a window slot: PVC window full, nothing to retransmit (a
// retransmission already holds its slot and bypasses the cap). Step's
// offer pass drops such a source from the offerable list — scanning it
// every cycle would be a guaranteed no-op — and the unblocking ACK/NACK
// handler re-adds it through markOfferable on exactly the cycle it can
// act again, before that cycle's offer pass runs, so the offered packet
// stream is identical to scanning it every cycle. With its window full
// the source always has packets in flight, so the idle check's
// offerable-list emptiness test is unaffected.
func (n *Network) windowCapped(s *source) bool {
	return n.mode == qos.PVC && s.retx.empty() &&
		s.window >= n.cfg.QoS.WindowPackets
}

// nextOffer returns the earliest cycle at which this offerable source
// could inject, for the engine's idle fast-forward: the injection VC
// frees at busyUntil. A window-capped source returns neverCycle — the
// unblocking ACK/NACK is a record some wheel already holds.
func (n *Network) nextOffer(s *source) sim.Cycle {
	if s.offering != noPkt {
		return neverCycle
	}
	if s.retx.empty() {
		if s.queue.empty() {
			return neverCycle
		}
		if n.windowCapped(s) {
			return neverCycle
		}
	}
	return s.busyUntil
}
