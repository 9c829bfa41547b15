package network

import (
	"fmt"
	"math/bits"
	"os"
	"strconv"

	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
)

// This file is the opt-in invariant auditor: a read-only sweep over every
// engine container that cross-checks the redundant encodings the
// data-oriented core maintains — VC occupancy bitmaps against owner
// arrays, packet residence against buffer ownership, source windows
// against live attempt censuses, the free list against slot liveness,
// live blocked-arbitration verdicts against the VC pools they rest on,
// per-flow queues against the candidate lists they index, the timing
// wheels against the draining VCs and parked packets whose only forward
// reference is a scheduled record, the arrival wheel against the sources
// that will generate again, and each wheel's count and the shared
// occupancy map against what the wheels actually hold. Any disagreement is a
// state-corruption bug; the auditor turns it into an immediate, located
// failure instead of a silently wrong simulation result.
//
// The auditor runs every Config.AuditEvery stepped cycles (Step checks
// one comparison per cycle when disabled), or process-wide via the
// TANOQ_AUDIT environment variable: set it to an integer interval, or to
// any non-numeric value for the default interval. CI runs the
// equivalence and determinism suites under TANOQ_AUDIT (make audit).

// defaultAuditEvery is the audit interval when TANOQ_AUDIT is set
// without a numeric value.
const defaultAuditEvery = 1024

// envAuditEvery is the process-wide audit interval from TANOQ_AUDIT
// (zero = disabled).
var envAuditEvery = func() sim.Cycle {
	v, set := os.LookupEnv("TANOQ_AUDIT")
	if !set {
		return 0
	}
	if k, err := strconv.Atoi(v); err == nil && k > 0 {
		return sim.Cycle(k)
	}
	return defaultAuditEvery
}()

// mustAudit runs the auditor and panics on the first violation.
func (n *Network) mustAudit(now sim.Cycle) {
	if err := n.AuditInvariants(); err != nil {
		panic(fmt.Sprintf("network: invariant audit failed at cycle %d: %v", now, err))
	}
}

// AuditInvariants cross-checks the engine's redundant state encodings and
// returns the first violation found, or nil. It is read-only and safe to
// call between Steps at any time. Checks that depend on packet-slot
// recycling are skipped while a diagnostic hook suppresses it.
func (n *Network) AuditInvariants() error {
	// Free-list integrity, and the slot-liveness map every later check
	// prices against.
	isFree := make([]bool, len(n.arena))
	for _, h := range n.free {
		if h == noPkt || int(h) >= len(n.arena) {
			return fmt.Errorf("free list holds invalid handle %d (arena %d)", h, len(n.arena))
		}
		if isFree[h] {
			return fmt.Errorf("free list holds handle %d twice", h)
		}
		isFree[h] = true
	}

	// Pending-event census: per-packet events keyed by gen-current handle,
	// scheduled releases keyed by (buf, vc, gen), and the bookkeeping
	// events sysEvents claims are outstanding.
	type relKey struct {
		buf int32
		vc  int16
		gen uint32
	}
	pendingRel := make(map[relKey]bool)
	pktEvents := make(map[pktH]bool)
	sys := 0
	anchor := func(p pktH, pgen uint32) {
		if p != noPkt && int(p) < len(n.arena) && n.arena[p].gen == pgen {
			pktEvents[p] = true
		}
	}
	tally := func(ev *event) {
		switch ev.kind {
		case evRelease:
			pendingRel[relKey{ev.buf, ev.vc, ev.gen}] = true
		case evFault, evWatchdog, evProbe:
			sys++
		case evInject:
		default:
			anchor(ev.p, ev.pgen)
		}
	}
	for i := range n.events.late {
		tally(&n.events.late[i])
	}
	// One census per wheel: what each holds, the wheel's own integrity,
	// and in filed the cycles that hold a bucket anywhere. Dense releases
	// justify draining VCs like evRelease events do; dense heads, delivers
	// and ACKs anchor live slots.
	now := n.clock.Now()
	var filed calendar
	if err := n.events.census(now, &filed, func(_ sim.Cycle, ev *event) { tally(ev) }); err != nil {
		return fmt.Errorf("event wheel: %v", err)
	}
	if err := n.relw.census(now, &filed, func(_ sim.Cycle, r *relRec) {
		pendingRel[relKey{r.buf, r.vc, r.gen}] = true
	}); err != nil {
		return fmt.Errorf("release wheel: %v", err)
	}
	for i, w := range [...]*wheel[pktRec]{&n.headw, &n.delivw, &n.ackw} {
		if err := w.census(now, &filed, func(_ sim.Cycle, r *pktRec) { anchor(r.p, r.pgen) }); err != nil {
			return fmt.Errorf("%s wheel: %v", [...]string{"head", "deliver", "ack"}[i], err)
		}
	}
	// The arrival schedule: every source that will generate again is filed
	// exactly once, at its next arrival, and no other source is filed at
	// all — one that drops out of the schedule just stops injecting.
	filings := make([]int, len(n.srcs))
	filedAt := make([]sim.Cycle, len(n.srcs))
	if err := n.arrivals.census(now, &filed, func(at sim.Cycle, idx *int32) {
		filings[*idx]++
		filedAt[*idx] = at
	}); err != nil {
		return fmt.Errorf("arrival wheel: %v", err)
	}
	for si := range n.srcs {
		s, want := &n.srcs[si], 0
		if n.arrivalEligible(s) {
			want = 1
		}
		if filings[si] != want {
			return fmt.Errorf("source %d (flow %d, next arrival %d) is on the arrival wheel %d times, want %d",
				si, s.spec.Flow, s.nextArrival, filings[si], want)
		}
		if want == 1 && filedAt[si] != max(s.nextArrival, now) {
			return fmt.Errorf("source %d (flow %d) is filed at cycle %d, its next arrival is %d",
				si, s.spec.Flow, filedAt[si], s.nextArrival)
		}
	}
	for wi := range filed.busy {
		if d := filed.busy[wi] ^ n.cal.busy[wi]; d != 0 {
			slot := wi<<6 + bits.TrailingZeros64(d)
			return fmt.Errorf("shared occupancy map marks slot %d %v, the wheels' buckets there say %v",
				slot, n.cal.busy[wi]&d != 0, filed.busy[wi]&d != 0)
		}
	}
	if sys != n.sysEvents {
		return fmt.Errorf("sysEvents says %d bookkeeping events pending, the event wheel holds %d", n.sysEvents, sys)
	}

	// VC pools: bitmap/owner/occupied agreement, owner liveness, and a
	// justification for every draining VC (owned, but its packet has moved
	// on: a scheduled release with the current generation must exist).
	for bi := range n.bufs {
		b := &n.bufs[bi]
		occ := int32(0)
		for i := int32(0); i < b.nvc; i++ {
			free := b.freeW[i>>6]&(1<<uint(i&63)) != 0
			h := b.owner[i]
			if free != (h == noPkt) {
				return fmt.Errorf("buf %d (%s) vc %d: free bit %v but owner %d", bi, b.spec.Name, i, free, h)
			}
			if h == noPkt {
				continue
			}
			occ++
			if int(h) >= len(n.arena) {
				return fmt.Errorf("buf %d (%s) vc %d: owner handle %d outside arena", bi, b.spec.Name, i, h)
			}
			if isFree[h] {
				// A freed owner is legitimate only for a draining VC: the
				// packet was delivered and its slot recycled while the
				// scheduled credit-loop release is still in flight. Without
				// that release the VC is leaked to a dead slot.
				if !pendingRel[relKey{int32(bi), int16(i), b.gens[i]}] {
					return fmt.Errorf("buf %d (%s) vc %d: owned by recycled slot %d with no pending release", bi, b.spec.Name, i, h)
				}
				continue
			}
			p := &n.arena[h]
			resident := (p.curBuf == int32(bi) && p.curVC == i) || (p.nxtBuf == int32(bi) && p.nxtVC == i)
			if !resident && !pendingRel[relKey{int32(bi), int16(i), b.gens[i]}] {
				return fmt.Errorf("buf %d (%s) vc %d: held by pkt %d (flow %d, %s) that neither resides nor drains (no pending release)",
					bi, b.spec.Name, i, p.ID, p.Flow, p.state)
			}
		}
		if occ != b.occupied {
			return fmt.Errorf("buf %d (%s): occupied says %d, %d VCs actually owned", bi, b.spec.Name, b.occupied, occ)
		}
	}

	// Residence symmetry for parked packets: a buffered arbitration
	// candidate must own the VC it sits in and hold no next-hop claim.
	// (A moving or just-delivered packet's claims can legitimately trail
	// an early credit-loop release — the terminal's release fires before
	// the tail arrives — so only the stWaiting direction is invariant.)
	for h := pktH(1); int(h) < len(n.arena); h++ {
		if isFree[h] {
			continue
		}
		p := &n.arena[h]
		if p.state != stWaiting {
			continue
		}
		if p.curBuf == noBuf {
			// The injection VC: an offered packet waits at its source.
			continue
		}
		if n.bufs[p.curBuf].owner[p.curVC] != h {
			return fmt.Errorf("waiting pkt %d (slot %d) claims buf %d vc %d, owned by %d",
				p.ID, h, p.curBuf, p.curVC, n.bufs[p.curBuf].owner[p.curVC])
		}
		if p.nxtBuf != noBuf {
			return fmt.Errorf("waiting pkt %d (slot %d) holds a next-hop claim on buf %d vc %d",
				p.ID, h, p.nxtBuf, p.nxtVC)
		}
	}

	// Candidate lists: waiterCount agreement, active-list membership, live
	// waiters only, no stale blocked verdict, and under per-flow queueing
	// the flow queues against the filed prefix of the list.
	waiters := 0
	for pi := range n.ports {
		port := &n.ports[pi]
		waiters += len(port.waiters)
		if len(port.waiters) > 0 && n.activeW[pi>>6]&(1<<(uint(pi)&63)) == 0 {
			return fmt.Errorf("port %d (%s) holds %d waiters but its active bit is clear", pi, port.spec.Name, len(port.waiters))
		}
		// A live blocked verdict (blockedAt == epoch, see outPort) is sound
		// only while the port has candidates and none could be handed a VC
		// or, where the preemption logic exists, take one from a victim: a
		// waiter that can means a fed buffer or a priority changed without
		// moving the port's epoch. The victim half binds the waiters a round
		// actually tries: arbitrate's failedBufs list refuses an ordinary
		// candidate unasked once a better bid has failed on its buffer.
		blocked := port.blockedAt == port.epoch
		if blocked && len(port.waiters) == 0 {
			return fmt.Errorf("port %d (%s) holds a live blocked verdict but no waiters", pi, port.spec.Name)
		}
		for _, h := range port.waiters {
			if int(h) >= len(n.arena) || isFree[h] {
				return fmt.Errorf("port %d (%s) waiter %d is not a live slot", pi, port.spec.Name, h)
			}
			if !blocked {
				continue
			}
			w := &n.arena[h]
			leg := &w.legs[w.Hop()]
			buf := &n.bufs[leg.In]
			if buf.canAlloc(w.Reserved) {
				return fmt.Errorf("port %d (%s) holds a live blocked verdict but pkt %d can allocate: an epoch bump was missed", pi, port.spec.Name, w.ID)
			}
			if n.mode == qos.PVC && !leg.Intermediate {
				prios := port.table.Priorities()
				vc, vp := n.worstVictim(buf, prios)
				if vp > prios[w.Flow]+n.margin*port.table.PriorityStep(w.Flow) && (w.Reserved || !n.outranked(port, h)) {
					return fmt.Errorf("port %d (%s) holds a live blocked verdict but pkt %d can preempt vc %d of buf %d (priority %d): an epoch bump was missed", pi, port.spec.Name, w.ID, vc, leg.In, vp)
				}
			}
		}
		if err := n.auditFlowQueues(port); err != nil {
			return fmt.Errorf("port %d (%s) flow queues: %v", pi, port.spec.Name, err)
		}
	}
	if waiters != n.waiterCount {
		return fmt.Errorf("waiterCount says %d, ports hold %d", n.waiterCount, waiters)
	}

	// The remaining checks census window slots and slot reachability,
	// which assume recycling is live; a diagnostic hook suppresses it.
	if n.preemptHook != nil || n.grantHook != nil {
		return nil
	}

	// Per-source window conservation: injected-unACKed slots (in network,
	// delivered-awaiting-ACK, dead-awaiting-retry) plus the retransmission
	// queue must equal the window count. Reachability: every live slot must
	// be findable from a source's retransmission queue or minted head, a
	// VC, or a pending event — an unreachable live slot is a leak. The
	// pending backlog holds no slots, so a minted head must sit over a
	// non-empty queue.
	inRetx := make(map[pktH]int32)
	for si := range n.srcs {
		s := &n.srcs[si]
		for i := s.retx.head; i < len(s.retx.items); i++ {
			inRetx[s.retx.items[i]] = s.idx
		}
		if s.minted == noPkt {
			continue
		}
		if s.queue.empty() {
			return fmt.Errorf("source %d (flow %d) holds minted slot %d over an empty queue", si, s.spec.Flow, s.minted)
		}
		if int(s.minted) >= len(n.arena) || isFree[s.minted] {
			return fmt.Errorf("source %d (flow %d) minted head %d is not a live slot", si, s.spec.Flow, s.minted)
		}
	}
	held := make([]int, len(n.srcs))
	for h := pktH(1); int(h) < len(n.arena); h++ {
		if isFree[h] {
			continue
		}
		p := &n.arena[h]
		if _, retx := inRetx[h]; retx {
			held[p.srcIdx]++
			continue
		}
		s := &n.srcs[p.srcIdx]
		if s.minted == h || s.offering == h {
			continue
		}
		// Not parked at its source: the slot holds a window slot and must
		// be anchored somewhere the engine will come back to.
		held[p.srcIdx]++
		anchored := p.curBuf != noBuf || p.nxtBuf != noBuf || pktEvents[h]
		if p.state == stWaiting {
			anchored = true // registered as a candidate (checked above)
		}
		if !anchored {
			return fmt.Errorf("pkt %d (slot %d, flow %d, %s) is live but unreachable: not minted, offered, buffered or scheduled",
				p.ID, h, p.Flow, p.state)
		}
	}
	for si := range n.srcs {
		s := &n.srcs[si]
		if held[si] != s.window {
			return fmt.Errorf("source %d (flow %d): window says %d outstanding, census finds %d",
				si, s.spec.Flow, s.window, held[si])
		}
	}
	return nil
}

// outranked reports whether another waiter of the port bids better than h
// for the same buffer, pricing both the way arbitrate's bid build does.
func (n *Network) outranked(port *outPort, h pktH) bool {
	bidOf := func(h pktH) (bid, topology.BufID) {
		w := &n.arena[h]
		leg := &w.legs[w.Hop()]
		prio := w.Priority
		if !leg.Intermediate {
			prio = port.table.Priorities()[w.Flow]
		} else if w.frameStamp != n.frameCount {
			prio = 0
		}
		return bid{prio: prio, created: w.Created, id: w.ID, h: h}, leg.In
	}
	mine, buf := bidOf(h)
	for _, o := range port.waiters {
		if theirs, b := bidOf(o); b == buf && betterBid(&theirs, &mine) {
			return true
		}
	}
	return false
}

// auditFlowQueues checks a port's per-flow-queue index (flowQueues)
// against its candidate list (other modes keep none): every handle in
// waiters[:seen] sits in exactly one flow queue and that queue is its own
// flow's, every entry still carries its packet's frozen key, each queue
// is sorted by it, and the bitmap marks exactly the non-empty queues.
func (n *Network) auditFlowQueues(port *outPort) error {
	if n.mode != qos.PerFlowQueue {
		return nil
	}
	fq := n.flowQs[port.id]
	if fq.seen < 0 || fq.seen > len(port.waiters) {
		return fmt.Errorf("cursor %d outside the %d waiters", fq.seen, len(port.waiters))
	}
	filed := make(map[pktH]int, fq.seen)
	entries, set := 0, 0
	for _, w := range fq.active {
		set += bits.OnesCount64(w) // a bit past the last flow shows as a surplus
	}
	for f := range fq.flows {
		q := &fq.flows[f]
		if bit := fq.active[f>>6]&(1<<(uint(f)&63)) != 0; bit == q.empty() {
			return fmt.Errorf("flow %d: active bit %v but %d queued", f, bit, len(q.items)-q.head)
		}
		if !q.empty() {
			set--
		}
		for i := q.head; i < len(q.items); i++ {
			e := &q.items[i]
			entries++
			filed[e.h]++
			if int(e.h) >= len(n.arena) {
				return fmt.Errorf("flow %d queues handle %d outside the arena", f, e.h)
			}
			w := &n.arena[e.h]
			want := bid{created: w.Created, id: w.ID, h: e.h}
			if q.inter {
				want.prio = w.Priority
			}
			if int(w.Flow) != f || *e != want || w.legs[w.Hop()].Intermediate != q.inter {
				return fmt.Errorf("flow %d (intermediate %v) entry %+v does not match pkt %d of flow %d (key %+v)", f, q.inter, *e, w.ID, w.Flow, want)
			}
			if i > q.head && !betterBid(&q.items[i-1], e) {
				return fmt.Errorf("flow %d queue out of order at entry %d: %+v before %+v", f, i-q.head, q.items[i-1], *e)
			}
		}
	}
	if set != 0 {
		return fmt.Errorf("bitmap marks %d flows beyond the non-empty queues", set)
	}
	if entries != fq.seen {
		return fmt.Errorf("%d entries queued, cursor says %d filed", entries, fq.seen)
	}
	for _, h := range port.waiters[:fq.seen] {
		if filed[h] != 1 {
			return fmt.Errorf("filed waiter %d sits in %d queues", h, filed[h])
		}
	}
	return nil
}
