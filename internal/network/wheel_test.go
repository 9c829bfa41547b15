package network

import (
	"strings"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// fire empties the bucket of cycle now and returns what it held.
func fire(w *wheel[int], cal *calendar, now sim.Cycle) []int {
	got := append([]int(nil), w.due(now)...)
	w.done(now)
	cal.clear(now)
	return got
}

func TestWheelFiresInFilingOrder(t *testing.T) {
	for _, log2 := range []uint{denseBits, longBits} {
		var cal calendar
		var w wheel[int]
		w.reset(&cal, log2, 4)
		file := w.add
		if w.pooled() {
			file = w.file
		}
		last := w.size() - 1
		file(1, 5)
		file(2, last)
		file(3, 5)
		if got := cal.next(0); got != 5 {
			t.Fatalf("next busy cycle %d, want 5", got)
		}
		if got := fire(&w, &cal, 5); len(got) != 2 || got[0] != 1 || got[1] != 3 {
			t.Errorf("cycle 5 fired %v, want [1 3]", got)
		}
		// The slot of cycle 5 now belongs to cycle 5+size.
		file(4, 5+w.size())
		if got := cal.next(6); got != last {
			t.Errorf("next busy cycle %d, want %d", got, last)
		}
		if got := fire(&w, &cal, last); len(got) != 1 || got[0] != 2 {
			t.Errorf("cycle %d fired %v, want [2]", last, got)
		}
		if got := cal.next(last + 1); got != 5+w.size() {
			t.Errorf("next busy cycle %d, want %d (across the wrap)", got, 5+w.size())
		}
		if w.count != 1 {
			t.Errorf("count %d, want 1", w.count)
		}
	}
}

func TestCalendarNextWrapsOnce(t *testing.T) {
	var cal calendar
	if got := cal.next(1000); got != neverCycle {
		t.Fatalf("empty calendar: next %d", got)
	}
	for _, now := range []sim.Cycle{0, 63, 64, 4095, 4096, 10_000} {
		for _, d := range []sim.Cycle{0, 1, 63, 64, 65, 4000, longSlots - 1} {
			cal = calendar{}
			cal.mark(now + d)
			if got := cal.next(now); got != now+d {
				t.Errorf("now %d: marked %d ahead, next says %d ahead", now, d, got-now)
			}
			if !cal.busyAt(now+d) || (d != 0 && cal.busyAt(now)) {
				t.Errorf("now %d distance %d: busyAt disagrees with mark", now, d)
			}
		}
	}
}

// A long wheel's footprint is its non-empty buckets: arrays come back to
// the pool as buckets fire and the next bucket to open takes them, so
// marching three times round the horizon with ten buckets open at a time
// never owns more than eleven arrays, where arrays kept in place would
// have left one in each of 4096 slots.
func TestLongWheelPoolsBucketArrays(t *testing.T) {
	var cal calendar
	var w wheel[int]
	w.reset(&cal, longBits, 4)
	for now := sim.Cycle(0); now < 3*longSlots; now++ {
		w.file(int(now), now+10)
		if got := fire(&w, &cal, now); now >= 10 && (len(got) != 1 || got[0] != int(now-10)) {
			t.Fatalf("cycle %d fired %v", now, got)
		}
	}
	arrays := len(w.spare)
	for _, b := range w.buckets {
		if cap(b) > 0 {
			arrays++
		}
	}
	if arrays > 11 {
		t.Errorf("%d arrays for at most 11 open buckets", arrays)
	}
	if err := w.census(3*longSlots, nil, func(sim.Cycle, *int) {}); err != nil {
		t.Error(err)
	}
}

func TestWheelOverflowDrainsInOrder(t *testing.T) {
	var cal calendar
	var w wheel[int]
	w.reset(&cal, longBits, 4)
	at := sim.Cycle(longSlots + 100)
	// Two spilled for the same cycle, one for later. Their values run
	// against the spill order, which alone decides the drain order.
	w.spill(2, at)
	w.spill(1, at)
	w.spill(3, at+5000)
	if w.farAt() != at || w.count != 3 || w.spills != 3 {
		t.Fatalf("farAt %d count %d spills %d", w.farAt(), w.count, w.spills)
	}
	w.drain(99) // 4097 ahead: not yet
	if w.drains != 0 {
		t.Fatal("drained a record still past the horizon")
	}
	w.drain(101)
	if w.drains != 2 || w.farAt() != at+5000 {
		t.Fatalf("drains %d farAt %d", w.drains, w.farAt())
	}
	if !cal.busyAt(at) {
		t.Error("drained bucket not marked")
	}
	// A younger record filed for the same cycle after the drain, as
	// schedule files one.
	w.file(10, at)
	if got := fire(&w, &cal, at); len(got) != 3 || got[0] != 2 || got[1] != 1 || got[2] != 10 {
		t.Errorf("fired %v, want [2 1 10]: spilled records first, in spill order", got)
	}
	// reset empties what is left without sweeping.
	w.file(7, at+9)
	w.reset(&cal, longBits, 4)
	cal = calendar{}
	if w.count != 0 || len(w.far.items) != 0 || len(w.due(at+9)) != 0 {
		t.Error("reset left records behind")
	}
}

// TestSpilledInjectionGeneratesFirst pins filing order across the overflow
// heap. An injection scheduled past the event wheel's horizon spills; once
// the clock has reached the first cycle at which its cycle is inside the
// horizon, but before the Step that drains it, a second injection for the
// same cycle is filed directly from between two Runs. The spilled one was
// scheduled first, so it must generate first.
func TestSpilledInjectionGeneratesFirst(t *testing.T) {
	w := traffic.UniformRandom(topology.ColumnNodes, 0)
	n := MustNew(Config{Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 1})
	var dsts []noc.NodeID
	n.SetGenHook(func(r traffic.TraceRecord) { dsts = append(dsts, r.Dst) })
	at := sim.Cycle(longSlots + 1000)
	n.ScheduleInjection(0, -1, 5, noc.ClassRequest, noc.KindRequest, 0, at)
	if n.events.spills != 1 {
		t.Fatalf("%d spills: the first injection must go to the overflow heap", n.events.spills)
	}
	n.Run(int(at - (longSlots - 1)))
	n.ScheduleInjection(1, -1, 6, noc.ClassRequest, noc.KindRequest, 0, at)
	n.Run(longSlots)
	if len(dsts) != 2 || dsts[0] != 5 || dsts[1] != 6 {
		t.Errorf("generated for %v, want [5 6]: the spilled injection first", dsts)
	}
}

// TestAuditCatchesWheelDrift corrupts the calendars' redundant state one
// piece at a time and expects the auditor to say which.
func TestAuditCatchesWheelDrift(t *testing.T) {
	// pending finds a source with an arrival filed on the wheel itself.
	pending := func(n *Network) (*source, *[]int32) {
		for i := range n.srcs {
			s := &n.srcs[i]
			if b := n.arrivals.bucket(s.nextArrival); n.arrivalEligible(s) && len(*b) == 1 && (*b)[0] == s.idx {
				return s, b
			}
		}
		panic("no source alone in its arrival bucket")
	}
	breaks := []struct {
		name, want string
		do         func(n *Network)
	}{
		{"source dropped from the schedule", "is on the arrival wheel 0 times", func(n *Network) {
			s, _ := pending(n)
			n.arrivals.done(s.nextArrival)
			n.cal.clear(s.nextArrival)
		}},
		{"source filed twice", "is on the arrival wheel 2 times", func(n *Network) {
			s, _ := pending(n)
			n.arrivals.file(s.idx, s.nextArrival+1)
		}},
		{"source filed at the wrong cycle", "its next arrival is", func(n *Network) {
			s, _ := pending(n)
			s.nextArrival++
		}},
		{"count drift", "head wheel: count says", func(n *Network) { n.headw.count++ }},
		{"occupancy bit lost", "occupancy map", func(n *Network) {
			s, _ := pending(n)
			n.cal.clear(s.nextArrival)
		}},
		{"stale occupancy bit", "occupancy map", func(n *Network) {
			for d := sim.Cycle(1); ; d++ {
				if at := n.clock.Now() + d; !n.cal.busyAt(at) {
					n.cal.mark(at)
					return
				}
			}
		}},
		{"empty bucket keeping its array", "arrival wheel: slot", func(n *Network) {
			s, b := pending(n)
			*b = (*b)[:0]
			n.arrivals.count--
			s.spec.StopAt = 1 // no longer eligible: only the array is wrong
			n.cal.clear(s.nextArrival)
		}},
		{"bookkeeping event lost", "sysEvents says", func(n *Network) { n.sysEvents++ }},
	}
	for _, br := range breaks {
		t.Run(br.name, func(t *testing.T) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.01)
			n := MustNew(Config{Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 5})
			n.Run(3_000)
			if err := n.AuditInvariants(); err != nil {
				t.Fatalf("audit failed before the corruption: %v", err)
			}
			br.do(n)
			err := n.AuditInvariants()
			if err == nil || !strings.Contains(err.Error(), br.want) {
				t.Errorf("audit said %v, want an error containing %q", err, br.want)
			}
		})
	}
}
