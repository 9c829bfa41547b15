package network

import (
	"fmt"
	"math/bits"

	"tanoq/internal/sim"
)

// The engine's scheduling core is one timing wheel, instantiated per
// record type. Everything the engine schedules lands a bounded distance
// ahead, so records live in per-cycle buckets indexed by cycle modulo the
// wheel's size: filing and firing are O(1), and bucket order is filing
// order, which is exactly the (cycle, schedule order) a heap would pop.
//
// The sizes come from a census of what is scheduled. Head arrivals,
// deliveries, ACKs and VC releases sit a router pipeline away and never
// leave 64 slots. Retry, think-time, probe, fault and watchdog timers,
// and the geometric inter-arrival gaps of a latency-load sweep's low-rate
// cells, sit hundreds of cycles out: 44-81 % of arrivals and every retry
// timer missed a 64-slot horizon, 4096 slots hold over 99 % of each
// (docs/LEDGER.md (f)).
const (
	denseBits = 6
	longBits  = 12
	longSlots = 1 << longBits
	// bucketCap pre-sizes a bucket so that steady-state depth spikes land
	// in existing capacity (see the working-set capacities in arena.go):
	// a cycle's hops on a dense wheel, up to every source on the arrival
	// wheel. eventBucketCap is the event wheel's: a cycle's timers and
	// NACKs, in records twice a dense record's size, with hundreds of
	// buckets open at once under retry timers.
	bucketCap      = 32
	eventBucketCap = 8
)

// calendar is what the wheels of one engine share: one occupancy bit per
// cycle of the long horizon, set by whichever wheel files a record there
// and cleared by Step once that cycle has fired. A record is always filed
// less than longSlots cycles ahead, so a set bit names its cycle
// unambiguously, "is anything due now" is one bit test and "when is
// anything due next" one scan.
type calendar struct {
	busy [longSlots / 64]uint64
}

func (c *calendar) mark(at sim.Cycle) {
	i := uint64(at) & (longSlots - 1)
	c.busy[i>>6] |= 1 << (i & 63)
}

func (c *calendar) clear(at sim.Cycle) {
	i := uint64(at) & (longSlots - 1)
	c.busy[i>>6] &^= 1 << (i & 63)
}

func (c *calendar) busyAt(at sim.Cycle) bool {
	i := uint64(at) & (longSlots - 1)
	return c.busy[i>>6]&(1<<(i&63)) != 0
}

// next returns the first marked cycle at or after now, wrapping once
// around the horizon, or neverCycle.
func (c *calendar) next(now sim.Cycle) sim.Cycle {
	start := int(uint64(now) & (longSlots - 1))
	if v := c.busy[start>>6] >> uint(start&63); v != 0 {
		return now + sim.Cycle(bits.TrailingZeros64(v))
	}
	for k := 1; k <= len(c.busy); k++ {
		wi := (start>>6 + k) & (len(c.busy) - 1)
		if v := c.busy[wi]; v != 0 {
			return now + sim.Cycle((wi<<6+bits.TrailingZeros64(v)-start)&(longSlots-1))
		}
	}
	return neverCycle
}

// spilled is a record filed past the horizon, waiting in the overflow
// heap in (cycle, key) order; key is the wheel's spill count when it was
// spilled, so records of one cycle drain in the order they were filed.
type spilled[T any] struct {
	at  sim.Cycle
	key uint64
	rec T
}

func (a spilled[T]) lessThan(b spilled[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.key < b.key
}

// wheel is the calendar of one record type: a ring of buckets, one per
// cycle of its horizon, each a slice in filing order. A wheel of
// 1<<denseBits slots keeps every bucket's array in place, pre-sized. A
// long wheel would pin thousands of them, so its buckets borrow an array
// from spare when they take their first record and give it back when they
// have fired: its footprint follows the number of non-empty buckets, not
// the horizon, and steady state allocates nothing however few slots
// warm-up visited. A wheel whose callers can reach past its horizon spills
// those records to far and drains them back as the clock approaches; the
// others never touch it.
type wheel[T any] struct {
	cal       *calendar
	buckets   [][]T
	spare     [][]T
	bucketCap int
	count     int // records in buckets and in far
	far       minHeap[spilled[T]]
	// spills and drains count the overflow path, for tests and benchmarks.
	spills, drains uint64
}

// reset empties the wheel, keeping its arrays. Only the slots the shared
// map marks can hold records, so a long wheel is not swept.
func (w *wheel[T]) reset(cal *calendar, log2 uint, bucketCap int) {
	if w.buckets == nil {
		w.buckets = make([][]T, 1<<log2)
		w.bucketCap = bucketCap
		if !w.pooled() {
			all := make([]T, len(w.buckets)*bucketCap)
			for i := range w.buckets {
				w.buckets[i] = all[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
			}
		}
	}
	if w.count > len(w.far.items) {
		for wi, v := range cal.busy {
			for ; v != 0; v &= v - 1 {
				w.done(sim.Cycle(wi<<6 + bits.TrailingZeros64(v)))
			}
		}
	}
	w.cal, w.count = cal, 0
	w.far.items = w.far.items[:0]
	w.spills, w.drains = 0, 0
}

func (w *wheel[T]) size() sim.Cycle { return sim.Cycle(len(w.buckets)) }
func (w *wheel[T]) pooled() bool    { return len(w.buckets) > 1<<denseBits }

func (w *wheel[T]) bucket(at sim.Cycle) *[]T {
	return &w.buckets[uint64(at)&uint64(len(w.buckets)-1)]
}

// borrow hands an empty bucket of a pooled wheel an array.
func (w *wheel[T]) borrow() []T {
	if k := len(w.spare); k > 0 {
		b := w.spare[k-1]
		w.spare = w.spare[:k-1]
		return b
	}
	return make([]T, 0, w.bucketCap)
}

// add files a record behind everything due at cycle at; the caller
// guarantees at is less than size() cycles ahead. Long wheels go through
// file: add alone would grow the bucket an array of its own.
func (w *wheel[T]) add(rec T, at sim.Cycle) {
	b := w.bucket(at)
	if len(*b) == 0 {
		w.cal.mark(at)
	}
	*b = append(*b, rec)
	w.count++
}

// file is add for a long wheel: an empty bucket borrows its array first.
func (w *wheel[T]) file(rec T, at sim.Cycle) {
	if b := w.bucket(at); cap(*b) == 0 {
		*b = w.borrow()
	}
	w.add(rec, at)
}

// due is the bucket of cycle now, in filing order. A firing loop that
// lets handlers file for the cycle being fired re-reads it every
// iteration; done(now) ends the loop.
func (w *wheel[T]) due(now sim.Cycle) []T { return *w.bucket(now) }

// done empties the bucket of cycle now.
func (w *wheel[T]) done(now sim.Cycle) {
	b := w.bucket(now)
	w.count -= len(*b)
	if w.pooled() {
		if cap(*b) > 0 {
			w.spare = append(w.spare, (*b)[:0])
		}
		*b = nil
	} else {
		*b = (*b)[:0]
	}
}

// spill parks a record due size() or more cycles ahead; records spilled
// for the same cycle drain in the order they were spilled.
func (w *wheel[T]) spill(rec T, at sim.Cycle) {
	w.far.push(spilled[T]{at: at, key: w.spills, rec: rec})
	w.count++
	w.spills++
}

// drain files the spilled records that have come within the horizon,
// behind whatever their buckets already hold.
func (w *wheel[T]) drain(now sim.Cycle) {
	for len(w.far.items) > 0 && w.far.items[0].at-now < w.size() {
		sp := w.far.pop()
		w.count--
		w.drains++
		w.file(sp.rec, max(sp.at, now))
	}
}

// farAt is the cycle of the earliest spilled record, or neverCycle.
func (w *wheel[T]) farAt() sim.Cycle {
	if len(w.far.items) == 0 {
		return neverCycle
	}
	return w.far.items[0].at
}

// census visits every pending record with the cycle it is due, in no
// particular order, marks in filed (when given) the cycles it holds
// buckets for, and reports a count that disagrees with what it walked or
// a bucket array in the wrong hands. Audit and diagnostics only.
func (w *wheel[T]) census(now sim.Cycle, filed *calendar, visit func(at sim.Cycle, rec *T)) error {
	seen := len(w.far.items)
	for i := range w.far.items {
		visit(w.far.items[i].at, &w.far.items[i].rec)
	}
	for si, b := range w.buckets {
		if len(b) == 0 && w.pooled() == (cap(b) > 0) {
			return fmt.Errorf("slot %d: empty bucket with capacity %d", si, cap(b))
		}
		at := now + sim.Cycle((si-int(now))&(len(w.buckets)-1))
		if len(b) > 0 && filed != nil {
			filed.mark(at)
		}
		for i := range b {
			visit(at, &b[i])
		}
		seen += len(b)
	}
	if seen != w.count {
		return fmt.Errorf("count says %d records, census finds %d", w.count, seen)
	}
	return nil
}
