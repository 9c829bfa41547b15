package qos

import (
	"testing"
	"testing/quick"

	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

func equalRates(n int) []float64 {
	r := make([]float64, n)
	for i := range r {
		r[i] = 1.0 / float64(n)
	}
	return r
}

// newFlowTable builds a table over rates with the default priority
// quantum.
func newFlowTable(rates []float64) *FlowTable {
	return NewFlowTableWithQuantum(rates, PriorityQuantumFlits)
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{PVC: "pvc", PerFlowQueue: "per-flow-queue", NoQoS: "no-qos"}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", m, m, want)
		}
	}
}

func TestDefaultConfigValid(t *testing.T) {
	c := DefaultConfig(64)
	if err := c.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if len(c.Rates) != 64 {
		t.Fatalf("rates len = %d", len(c.Rates))
	}
}

func TestConfigValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"no flows", func(c *Config) { c.Rates = nil }},
		{"zero rate", func(c *Config) { c.Rates[3] = 0 }},
		{"negative rate", func(c *Config) { c.Rates[0] = -0.1 }},
		{"zero frame", func(c *Config) { c.FrameCycles = 0 }},
		{"zero window", func(c *Config) { c.WindowPackets = 0 }},
	}
	for _, tc := range cases {
		c := DefaultConfig(8)
		tc.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", tc.name)
		}
	}
}

func TestFlowTablePriorityGrowsWithConsumption(t *testing.T) {
	ft := newFlowTable(equalRates(4))
	p0 := ft.prio[0]
	ft.Record(0, 2*PriorityQuantumFlits)
	p1 := ft.prio[0]
	ft.Record(0, 2*PriorityQuantumFlits)
	p2 := ft.prio[0]
	if !(p0 < p1 && p1 < p2) {
		t.Fatalf("priority not monotonic: %d, %d, %d", p0, p1, p2)
	}
}

func TestFlowTablePriorityQuantized(t *testing.T) {
	// Consumption differences below a quantum must tie: preemption and
	// arbitration treat near-equal flows as equal (Section 5.2's low
	// preemption incidence depends on this).
	ft := newFlowTable(equalRates(2))
	ft.Record(0, PriorityQuantumFlits-1)
	if ft.prio[0] != ft.prio[1] {
		t.Fatalf("sub-quantum imbalance changed priority class: %d vs %d",
			ft.prio[0], ft.prio[1])
	}
	ft.Record(0, 1)
	if ft.prio[0] <= ft.prio[1] {
		t.Fatal("full quantum should move the flow to a worse class")
	}
}

func TestFlowTableEqualRatesEqualScaling(t *testing.T) {
	ft := newFlowTable(equalRates(8))
	ft.Record(2, 10)
	ft.Record(5, 10)
	if ft.prio[2] != ft.prio[5] {
		t.Fatalf("equal consumption, equal rates, unequal priorities: %d vs %d",
			ft.prio[2], ft.prio[5])
	}
}

func TestFlowTableRateScaling(t *testing.T) {
	// Flow 0 is entitled to 4x the rate of flow 1. After consuming the
	// same bandwidth, flow 0 must have the better (lower) priority.
	ft := newFlowTable([]float64{0.4, 0.1})
	ft.Record(0, 20*PriorityQuantumFlits)
	ft.Record(1, 20*PriorityQuantumFlits)
	if ft.prio[0] >= ft.prio[1] {
		t.Fatalf("high-rate flow should have better priority: %d vs %d",
			ft.prio[0], ft.prio[1])
	}
	// And the ratio should be roughly the inverse rate ratio (4x).
	ratio := float64(ft.prio[1]) / float64(ft.prio[0])
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("priority ratio = %v, want ~4", ratio)
	}
}

func TestFlowTableFlush(t *testing.T) {
	ft := newFlowTable(equalRates(3))
	ft.Record(1, 100)
	ft.Flush()
	if ft.prio[1] != 0 || ft.consumed[1] != 0 {
		t.Fatal("flush did not clear counters")
	}
}

func TestFlowTablePanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero rate did not panic")
		}
	}()
	newFlowTable([]float64{0.5, 0})
}

func TestFlowTablePriorityMonotonicProperty(t *testing.T) {
	// Priority classes never improve as consumption grows.
	ft := newFlowTable(equalRates(2))
	prev := noc.Priority(0)
	check := func(flits uint8) bool {
		ft.Record(0, int(flits)+1)
		p := ft.prio[0]
		ok := p >= prev
		prev = p
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestReservedQuotaConsume(t *testing.T) {
	// rate 0.1 over a 100-cycle frame = 10 flits of quota.
	q := NewReservedQuota([]float64{0.1}, 100)
	if q.remaining[0] != 10 {
		t.Fatalf("quota = %d, want 10", q.remaining[0])
	}
	for i := 0; i < 10; i++ {
		if !q.TryConsume(0, 1) {
			t.Fatalf("consume %d failed under quota", i)
		}
	}
	if q.TryConsume(0, 1) {
		t.Fatal("consume succeeded past quota")
	}
	q.Refill()
	if q.remaining[0] != 10 {
		t.Fatal("refill did not restore quota")
	}
}

func TestReservedQuotaWholePacketSemantics(t *testing.T) {
	q := NewReservedQuota([]float64{0.03}, 100) // 3 flits
	if q.TryConsume(0, 4) {
		t.Fatal("4-flit packet admitted under 3-flit quota")
	}
	if q.remaining[0] != 3 {
		t.Fatal("failed TryConsume must not charge quota")
	}
	if !q.TryConsume(0, 3) {
		t.Fatal("3 flits rejected under 3-flit quota")
	}
}

func TestReservedQuotaNeverNegativeProperty(t *testing.T) {
	q := NewReservedQuota([]float64{0.25, 0.5}, 200)
	check := func(flow bool, flits uint8) bool {
		f := noc.FlowID(0)
		if flow {
			f = 1
		}
		q.TryConsume(f, int(flits%8))
		return q.remaining[f] >= 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFrameTimer(t *testing.T) {
	ft := NewFrameTimer(50)
	fires := 0
	for now := sim.Cycle(0); now <= 200; now++ {
		if ft.Expired(now) {
			fires++
		}
	}
	if fires != 4 { // at 50, 100, 150, 200
		t.Fatalf("fires = %d, want 4", fires)
	}
}

func TestFrameTimerNext(t *testing.T) {
	ft := NewFrameTimer(50)
	if ft.Next() != 50 {
		t.Fatalf("fresh timer Next() = %d, want 50", ft.Next())
	}
	if !ft.Expired(50) {
		t.Fatal("boundary did not fire")
	}
	// Next always reports the upcoming boundary — the cycle an idle
	// fast-forward must not jump past.
	if ft.Next() != 100 {
		t.Fatalf("after one boundary Next() = %d, want 100", ft.Next())
	}
	if ft.Expired(99) {
		t.Fatal("fired before the boundary")
	}
}

func TestFrameTimerPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero frame did not panic")
		}
	}()
	NewFrameTimer(0)
}

func TestBetterOrdering(t *testing.T) {
	pa := &noc.Packet{ID: 1}
	pb := &noc.Packet{ID: 2}
	a := Candidate{Packet: pa, Priority: 10, Enqueued: 5}
	b := Candidate{Packet: pb, Priority: 20, Enqueued: 1}
	if !Better(a, b) {
		t.Fatal("lower priority value must win")
	}
	// Equal priority: older wins.
	b.Priority = 10
	if Better(a, b) || !Better(b, a) {
		t.Fatal("older candidate must win at equal priority")
	}
	// Full tie: lower ID wins.
	b.Enqueued = 5
	if !Better(a, b) {
		t.Fatal("lower ID must win on full tie")
	}
}

func TestBetterIsStrictTotalOrderProperty(t *testing.T) {
	mk := func(prio uint16, enq uint8, id uint8) Candidate {
		return Candidate{
			Packet:   &noc.Packet{ID: uint64(id)},
			Priority: noc.Priority(prio),
			Enqueued: sim.Cycle(enq),
		}
	}
	check := func(p1, p2 uint16, e1, e2, i1, i2 uint8) bool {
		a, b := mk(p1, e1, i1), mk(p2, e2, i2)
		if a.Priority == b.Priority && a.Enqueued == b.Enqueued && a.Packet.ID == b.Packet.ID {
			return !Better(a, b) && !Better(b, a) // irreflexive on equals
		}
		return Better(a, b) != Better(b, a) // antisymmetric & total
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestPickPVC(t *testing.T) {
	if PickPVC(nil) != -1 {
		t.Fatal("empty candidate list should return -1")
	}
	cands := []Candidate{
		{Packet: &noc.Packet{ID: 1}, Priority: 30},
		{Packet: &noc.Packet{ID: 2}, Priority: 10},
		{Packet: &noc.Packet{ID: 3}, Priority: 20},
	}
	if got := PickPVC(cands); got != 1 {
		t.Fatalf("PickPVC = %d, want 1", got)
	}
}

func TestRoundRobinRotates(t *testing.T) {
	var rr RoundRobin
	all := func(int) bool { return true }
	got := []int{}
	for i := 0; i < 8; i++ {
		got = append(got, rr.Pick(4, all))
	}
	want := []int{1, 2, 3, 0, 1, 2, 3, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("rotation %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	var rr RoundRobin
	only2 := func(i int) bool { return i == 2 }
	for i := 0; i < 5; i++ {
		if got := rr.Pick(4, only2); got != 2 {
			t.Fatalf("Pick = %d, want 2", got)
		}
	}
	if rr.Pick(4, func(int) bool { return false }) != -1 {
		t.Fatal("no requesters should yield -1")
	}
	if rr.Pick(0, only2) != -1 {
		t.Fatal("n=0 should yield -1")
	}
}

func TestRoundRobinFairnessUnderFullLoad(t *testing.T) {
	var rr RoundRobin
	counts := make([]int, 5)
	all := func(int) bool { return true }
	for i := 0; i < 5000; i++ {
		counts[rr.Pick(5, all)]++
	}
	for i, c := range counts {
		if c != 1000 {
			t.Errorf("position %d granted %d times, want 1000", i, c)
		}
	}
}

// TestRoundRobinMatchesModuloArithmetic pins Pick's compare-and-wrap
// rotation against the per-candidate modulo it replaced, including
// rotation pointers left at or beyond n by a shrunken position count and
// rounds nobody wins (which must leave the pointer alone).
func TestRoundRobinMatchesModuloArithmetic(t *testing.T) {
	modPick := func(last, n int, requesting func(int) bool) (int, int) {
		for off := 1; off <= n; off++ {
			if i := (last + off) % n; requesting(i) {
				return i, i
			}
		}
		return -1, last
	}
	for _, tc := range []struct {
		name       string
		last, n    int
		requesting func(int) bool
	}{
		{"all from zero", 0, 4, func(int) bool { return true }},
		{"last is final position", 3, 4, func(int) bool { return true }},
		{"last equals n", 4, 4, func(int) bool { return true }},
		{"last beyond n", 9, 4, func(int) bool { return true }},
		{"last far beyond n", 31, 3, func(i int) bool { return i == 0 }},
		{"only last requests", 6, 5, func(i int) bool { return i == 1 }},
		{"single position", 7, 1, func(int) bool { return true }},
		{"nobody requests", 5, 4, func(int) bool { return false }},
		{"nobody requests, last beyond n", 9, 2, func(int) bool { return false }},
	} {
		rr := RoundRobin{last: tc.last}
		wantIdx, wantLast := modPick(tc.last, tc.n, tc.requesting)
		if got := rr.Pick(tc.n, tc.requesting); got != wantIdx || rr.last != wantLast {
			t.Errorf("%s: Pick = %d (last %d), modulo arithmetic gives %d (last %d)",
				tc.name, got, rr.last, wantIdx, wantLast)
		}
	}
}

func TestEffectiveQuantumAndMargin(t *testing.T) {
	c := DefaultConfig(4)
	if c.EffectiveQuantum() != PriorityQuantumFlits {
		t.Errorf("default quantum = %d", c.EffectiveQuantum())
	}
	if c.EffectiveMargin() != PreemptionMarginClasses {
		t.Errorf("default margin = %d", c.EffectiveMargin())
	}
	c.QuantumFlits = 32
	c.MarginClasses = 4
	if c.EffectiveQuantum() != 32 || c.EffectiveMargin() != 4 {
		t.Error("overrides not honoured")
	}
}

func TestConfigValidateQuantumAndMargin(t *testing.T) {
	c := DefaultConfig(4)
	c.QuantumFlits = 12
	if err := c.Validate(); err == nil {
		t.Error("non-power-of-two quantum accepted")
	}
	c = DefaultConfig(4)
	c.MarginClasses = -1
	if err := c.Validate(); err == nil {
		t.Error("negative margin accepted")
	}
	c = DefaultConfig(4)
	c.QuantumFlits = 64
	if err := c.Validate(); err != nil {
		t.Errorf("valid override rejected: %v", err)
	}
}

func TestNewFlowTableWithQuantumPanicsOnBadQuantum(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("quantum 3 did not panic")
		}
	}()
	NewFlowTableWithQuantum(equalRates(2), 3)
}

func TestFlowTableQuantumGranularity(t *testing.T) {
	fine := NewFlowTableWithQuantum(equalRates(2), 1)
	coarse := NewFlowTableWithQuantum(equalRates(2), 256)
	fine.Record(0, 10)
	coarse.Record(0, 10)
	if fine.prio[0] == 0 {
		t.Error("quantum 1 should register 10 flits")
	}
	if coarse.prio[0] != 0 {
		t.Error("quantum 256 should not register 10 flits")
	}
}

func TestModeStringUnknown(t *testing.T) {
	if s := Mode(99).String(); s != "mode(99)" {
		t.Errorf("unknown mode string %q", s)
	}
}
