package network

import (
	"fmt"
	"math/bits"

	"tanoq/internal/noc"
	"tanoq/internal/topology"
)

// inBuf is a router input buffer: a pool of virtual channels, each deep
// enough to hold the largest packet (virtual cut-through). One VC per
// network port is reserved for rate-compliant traffic (Table 1). In
// per-flow-queue mode the pool grows on demand, modelling a dedicated
// queue per flow — the idealized preemption-free reference. The pool is
// only the storage; the queues themselves, in service order, are kept at
// the output port that drains it (flowQueues).
//
// The pool is struct-of-arrays: per-VC state lives in parallel flat
// arrays (owner handle, release generation) plus a free-VC occupancy
// bitmap, so allocation is a word scan for the first eligible set bit and
// victim search walks only the busy indices — no per-VC objects, no
// pointer chasing. A VC is busy exactly when its owner handle is set;
// its free bit is the inverse.
type inBuf struct {
	id   topology.BufID
	spec topology.BufSpec
	// owner[i] is the handle of the packet holding VC i (noPkt = free).
	owner []pktH
	// gens guards against stale release events: each VC's generation is
	// bumped on release, and release events name the generation they
	// were scheduled for.
	gens []uint32
	// freeW is the free-VC bitmap (bit i set = VC i free), sized to nvc
	// bits; per-flow-queue pools grow it on demand.
	freeW []uint64
	nvc   int32
	// reservedIdx is the index of the compliant-reserved VC, -1 if none.
	reservedIdx int32
	unlimited   bool
	occupied    int32
	// feed is the arbitration epoch of the one output port that
	// allocates into this buffer (see outPort.epoch): every allocVC and
	// every effective release moves it.
	feed *uint64
}

// reinit configures the buffer for a fresh simulation, reusing the
// backing arrays when capacity suffices.
func (b *inBuf) reinit(id topology.BufID, spec topology.BufSpec, unlimited bool, feed *uint64) {
	b.id = id
	b.spec = spec
	b.unlimited = unlimited
	b.feed = feed
	b.occupied = 0
	b.nvc = int32(spec.VCs)
	b.reservedIdx = -1
	if spec.Reserved && !unlimited && spec.VCs > 0 {
		b.reservedIdx = b.nvc - 1
	}
	n := spec.VCs
	if cap(b.owner) < n {
		b.owner = make([]pktH, n)
		b.gens = make([]uint32, n)
	}
	b.owner = b.owner[:n]
	b.gens = b.gens[:n]
	for i := range b.owner {
		b.owner[i] = noPkt
		b.gens[i] = 0
	}
	// Always at least one word, so firstFree's single-word fast path
	// never bounds-checks an empty bitmap.
	words := (n + 63) / 64
	if words == 0 {
		words = 1
	}
	if cap(b.freeW) < words {
		b.freeW = make([]uint64, words)
	}
	b.freeW = b.freeW[:words]
	for i := range b.freeW {
		b.freeW[i] = ^uint64(0)
	}
	if rem := n & 63; rem != 0 {
		b.freeW[words-1] = (1 << uint(rem)) - 1
	}
	if n == 0 {
		b.freeW[0] = 0
	}
}

// node returns the router this buffer belongs to.
func (b *inBuf) node() int { return b.spec.Node }

// grow adds one VC to an unlimited pool and returns its index.
func (b *inBuf) grow() int32 {
	i := b.nvc
	b.nvc++
	b.owner = append(b.owner, noPkt)
	b.gens = append(b.gens, 0)
	if int(i)>>6 >= len(b.freeW) {
		b.freeW = append(b.freeW, 0)
	}
	b.freeW[i>>6] |= 1 << uint(i&63)
	return i
}

// firstFree returns the lowest free VC index excluding the reserved VC
// when skipReserved is set, or -1 when none is eligible. Every
// fixed-size pool fits one bitmap word (the paper's deepest pool is 5
// VCs), so the common case is a single masked trailing-zeros scan; only
// grown per-flow-queue pools take the multi-word loop.
func (b *inBuf) firstFree(skipReserved bool) int32 {
	w := b.freeW[0]
	if skipReserved && b.reservedIdx >= 0 && b.reservedIdx < 64 {
		w &^= 1 << uint(b.reservedIdx)
	}
	if w != 0 {
		return int32(bits.TrailingZeros64(w))
	}
	for wi := 1; wi < len(b.freeW); wi++ {
		w := b.freeW[wi]
		if skipReserved && b.reservedIdx>>6 == int32(wi) {
			w &^= 1 << uint(b.reservedIdx&63)
		}
		if w != 0 {
			return int32(wi<<6 + bits.TrailingZeros64(w))
		}
	}
	return -1
}

// allocVC claims a free VC for the packet, honouring the reserved-VC
// policy: ordinary packets may not take the compliant-reserved VC;
// compliant packets prefer ordinary VCs and fall back to the reserved
// one (it is the highest index, so the lowest-index-first scan reaches it
// last), keeping it available as the preemption safety valve. Returns the
// VC index or -1.
func (b *inBuf) allocVC(h pktH, reserved bool) int32 {
	var i int32
	if b.unlimited {
		// Per-flow queueing: find any free VC or grow the pool.
		i = b.firstFree(false)
		if i < 0 {
			i = b.grow()
		}
	} else {
		i = b.firstFree(!reserved)
		if i < 0 {
			return -1
		}
	}
	if b.owner[i] != noPkt {
		// The allocator must never double-book a buffer; a hard failure
		// turns a free-bitmap bug into an immediate, debuggable crash
		// at the fault site instead of silent flit corruption.
		panic(fmt.Sprintf("network: allocating busy VC %d of %s (owner %d)", i, b.spec.Name, b.owner[i]))
	}
	b.owner[i] = h
	b.freeW[i>>6] &^= 1 << uint(i&63)
	b.occupied++
	*b.feed++
	return i
}

// release frees VC i if its generation still matches (stale events from
// preempted packets are ignored; an immediate preemption-time release
// bumps the generation so the scheduled release becomes a no-op).
func (b *inBuf) release(i int32, gen uint32) {
	if b.gens[i] != gen {
		return
	}
	b.gens[i]++
	b.owner[i] = noPkt
	b.freeW[i>>6] |= 1 << uint(i&63)
	b.occupied--
	*b.feed++
}

// gen returns the current generation of VC i, captured when scheduling its
// release.
func (b *inBuf) gen(i int32) uint32 { return b.gens[i] }

// vcFree reports whether VC i currently holds no packet.
func (b *inBuf) vcFree(i int32) bool { return b.owner[i] == noPkt }

// worstVictim returns the VC holding the buffer's best preemption victim
// and that victim's priority, priced off the flat cached-priority array of
// the upstream output port's flow table — the preemption logic lives at
// that port (Figure 2(a)) and prices both the requester and the buffered
// packets off the same table, so a flow that has been over-served since
// its packet was buffered becomes preemptable. The victim is the packet
// with the numerically largest (worst) priority, lowest VC index first,
// that is not rate-compliant and still genuinely occupies this buffer
// (resident, or in flight into it — not a departed packet whose tail is
// draining out). The answer does not depend on who asks: a requester may
// preempt it exactly when the returned priority is strictly worse than
// its own threshold. Returns (-1, 0) when nothing is preemptable.
func (n *Network) worstVictim(b *inBuf, prios []noc.Priority) (int32, noc.Priority) {
	worst := int32(-1)
	var worstPrio noc.Priority
	for wi, w := range b.freeW {
		busy := ^w
		if int32(wi) == b.nvc>>6 {
			if rem := b.nvc & 63; rem != 0 {
				busy &= (1 << uint(rem)) - 1
			}
		}
		for busy != 0 {
			i := int32(wi<<6 + bits.TrailingZeros64(busy))
			busy &= busy - 1
			h := b.owner[i]
			if h == noPkt {
				continue
			}
			v := &n.arena[h]
			if v.Reserved || v.state == stDelivered || v.state == stDead {
				continue
			}
			resident := (v.curBuf == int32(b.id) && v.curVC == i) || (v.nxtBuf == int32(b.id) && v.nxtVC == i)
			if !resident {
				continue // already moved on; this VC is only draining
			}
			if vp := prios[v.Flow]; worst < 0 || vp > worstPrio {
				worst = i
				worstPrio = vp
			}
		}
	}
	return worst, worstPrio
}

// canAlloc reports whether allocVC would succeed for a packet with the
// given compliance bit, without allocating. Used by the round-robin
// arbiter to test eligibility.
func (b *inBuf) canAlloc(reserved bool) bool {
	if b.unlimited {
		return true // always admissible
	}
	return b.firstFree(!reserved) >= 0
}
