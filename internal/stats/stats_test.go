package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestCollectorDeliveryAccounting(t *testing.T) {
	c := NewCollector(4)
	c.Delivered(1, 4, 20, 100)
	c.Delivered(1, 1, 10, 120)
	c.Delivered(3, 4, 30, 90)
	if c.DeliveredPackets[1] != 2 || c.DeliveredFlits[1] != 5 {
		t.Errorf("flow 1: %d pkts %d flits", c.DeliveredPackets[1], c.DeliveredFlits[1])
	}
	if got := c.MeanLatency(); !almostEq(got, 20, 1e-9) {
		t.Errorf("mean latency %v, want 20", got)
	}
	if c.LatencySumByFlow[1] != 30 {
		t.Errorf("flow 1 latency sum %d, want 30", c.LatencySumByFlow[1])
	}
	if c.LastDelivery != 120 {
		t.Errorf("last delivery %d, want 120", c.LastDelivery)
	}
	if c.MaxLatency != 30 {
		t.Errorf("max latency %d, want 30", c.MaxLatency)
	}
}

func TestCollectorPauseGatesCounters(t *testing.T) {
	c := NewCollector(2)
	c.Pause()
	c.Delivered(0, 4, 10, 5)
	c.Injected(4)
	c.Preempted(3, true)
	c.HopTraversed(2)
	if c.TotalDelivered != 0 || c.InjectedPackets != 0 || c.PreemptionEvents != 0 || c.TotalHops != 0 {
		t.Fatal("paused collector recorded events")
	}
	c.Reset(50)
	if !c.Measuring() || c.start != 50 {
		t.Fatal("Reset did not restart measurement")
	}
	c.Delivered(0, 4, 10, 60)
	if c.TotalDelivered != 1 {
		t.Fatal("post-reset delivery not recorded")
	}
}

// TestCollectorResetInPlace pins that the warmup/measure boundary clears
// every counter without allocating: Reset zeroes the per-flow arrays
// NewCollector made instead of making them again.
func TestCollectorResetInPlace(t *testing.T) {
	c := NewCollector(64)
	fill := func() {
		c.Delivered(3, 4, 20, 10)
		c.Injected(4)
		c.TimeoutRetry(5)
		c.Dropped(7)
	}
	fill()
	c.Reset(100)
	for name, v := range map[string][]int64{"packets": c.DeliveredPackets, "flits": c.DeliveredFlits,
		"latency": c.LatencySumByFlow, "retries": c.RetriesByFlow, "drops": c.DropsByFlow} {
		if len(v) != 64 {
			t.Fatalf("%s: %d flows after Reset, want 64", name, len(v))
		}
		for f, x := range v {
			if x != 0 {
				t.Errorf("%s[%d] = %d after Reset", name, f, x)
			}
		}
	}
	if c.TotalDelivered != 0 || c.InjectedFlits != 0 || c.TotalRetries != 0 || c.TotalDropped != 0 || c.Latencies.count != 0 {
		t.Errorf("aggregates survive Reset: %+v", *c)
	}
	if allocs := testing.AllocsPerRun(100, func() { fill(); c.Reset(100) }); allocs != 0 {
		t.Errorf("Reset allocates %v times a call, want 0", allocs)
	}
}

func TestCollectorPreemptionRates(t *testing.T) {
	c := NewCollector(2)
	for i := 0; i < 90; i++ {
		c.Delivered(0, 1, 5, 10)
	}
	for i := 0; i < 10; i++ {
		c.Preempted(2, i < 5) // 10 events, 5 unique packets
	}
	for i := 0; i < 180; i++ {
		c.HopTraversed(1)
	}
	if got := c.PreemptionPacketRate(); !almostEq(got, 100*10.0/90.0, 1e-9) {
		t.Errorf("packet preemption rate %v", got)
	}
	if got := c.WastedHopRate(); !almostEq(got, 100*20.0/180.0, 1e-9) {
		t.Errorf("wasted hop rate %v", got)
	}
	if c.PreemptedUnique != 5 {
		t.Errorf("unique preempted %d, want 5", c.PreemptedUnique)
	}
	if c.Retransmits != 10 {
		t.Errorf("retransmits %d, want 10", c.Retransmits)
	}
}

func TestCollectorRatesWithNoTraffic(t *testing.T) {
	c := NewCollector(1)
	if c.MeanLatency() != 0 || c.PreemptionPacketRate() != 0 || c.WastedHopRate() != 0 {
		t.Error("empty collector should report zero rates")
	}
	if c.AcceptedFlitRate(0) != 0 {
		t.Error("zero-length window should report zero rate")
	}
}

func TestAcceptedFlitRate(t *testing.T) {
	c := NewCollector(2)
	c.Reset(100)
	c.Delivered(0, 3, 1, 150)
	c.Delivered(1, 2, 1, 200)
	if got := c.AcceptedFlitRate(200); !almostEq(got, 5.0/100.0, 1e-9) {
		t.Errorf("accepted rate %v, want 0.05", got)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4180, 4200, 4220})
	if !almostEq(s.Mean, 4200, 1e-9) {
		t.Errorf("mean %v", s.Mean)
	}
	if s.Min != 4180 || s.Max != 4220 {
		t.Errorf("extrema %v %v", s.Min, s.Max)
	}
	want := math.Sqrt((400 + 0 + 400) / 3.0)
	if !almostEq(s.StdDev, want, 1e-9) {
		t.Errorf("stddev %v, want %v", s.StdDev, want)
	}
	if !almostEq(s.MinPctOfMean(), 100*4180.0/4200.0, 1e-9) {
		t.Errorf("min%% %v", s.MinPctOfMean())
	}
	if !almostEq(s.MaxDeviationPct(), 100*20.0/4200.0, 1e-9) {
		t.Errorf("max dev %v", s.MaxDeviationPct())
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Mean != 0 || s.MinPctOfMean() != 0 || s.StdDevPctOfMean() != 0 {
		t.Error("empty summary should be all zero")
	}
}

func TestMaxMinUnderload(t *testing.T) {
	// Total demand below capacity: everyone gets their demand.
	shares := MaxMinShares([]float64{0.1, 0.2, 0.3}, 1.0)
	want := []float64{0.1, 0.2, 0.3}
	for i := range want {
		if !almostEq(shares[i], want[i], 1e-12) {
			t.Errorf("share[%d] = %v, want %v", i, shares[i], want[i])
		}
	}
}

func TestMaxMinOverload(t *testing.T) {
	// The paper's Workload 1 shape: capacity 1, demands around 1/8 each;
	// sources under the fair level keep their demand, the rest split.
	demands := []float64{0.05, 0.09, 0.12, 0.14, 0.16, 0.18, 0.19, 0.20}
	shares := MaxMinShares(demands, 1.0)
	sum := 0.0
	for i, s := range shares {
		if s > demands[i]+1e-12 {
			t.Errorf("share[%d]=%v exceeds demand %v", i, s, demands[i])
		}
		sum += s
	}
	if !almostEq(sum, 1.0, 1e-9) {
		t.Errorf("shares sum %v, want 1.0", sum)
	}
	// Source 0 demands 5% < fair level: fully granted.
	if !almostEq(shares[0], 0.05, 1e-12) {
		t.Errorf("low-demand source share %v, want its demand", shares[0])
	}
	// The top demands must all be clipped to a common level.
	if !almostEq(shares[6], shares[7], 1e-12) {
		t.Errorf("clipped sources unequal: %v vs %v", shares[6], shares[7])
	}
	if shares[7] >= 0.20 {
		t.Errorf("top source uncapped: %v", shares[7])
	}
}

func TestMaxMinEqualDemands(t *testing.T) {
	shares := MaxMinShares([]float64{0.5, 0.5, 0.5, 0.5}, 1.0)
	for i, s := range shares {
		if !almostEq(s, 0.25, 1e-12) {
			t.Errorf("share[%d]=%v, want 0.25", i, s)
		}
	}
}

func TestMaxMinDegenerate(t *testing.T) {
	if s := MaxMinShares(nil, 1.0); len(s) != 0 {
		t.Error("nil demands should yield empty shares")
	}
	s := MaxMinShares([]float64{0.5}, 0)
	if s[0] != 0 {
		t.Error("zero capacity should grant nothing")
	}
	s = MaxMinShares([]float64{-0.5, 0.3}, 1.0)
	if s[0] != 0 || !almostEq(s[1], 0.3, 1e-12) {
		t.Errorf("negative demand handling: %v", s)
	}
}

func TestMaxMinProperties(t *testing.T) {
	check := func(raw [6]uint8, capRaw uint8) bool {
		demands := make([]float64, len(raw))
		total := 0.0
		for i, v := range raw {
			demands[i] = float64(v) / 255.0
			total += demands[i]
		}
		capacity := float64(capRaw)/255.0 + 0.01
		shares := MaxMinShares(demands, capacity)
		sum := 0.0
		for i, s := range shares {
			if s < -1e-12 || s > demands[i]+1e-9 {
				return false
			}
			sum += s
		}
		want := math.Min(capacity, total)
		return almostEq(sum, want, 1e-6)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMaxMinWaterFillLevelProperty(t *testing.T) {
	// Any source not fully granted must receive at least as much as
	// every other source's share (the defining max-min property).
	check := func(raw [5]uint8, capRaw uint8) bool {
		demands := make([]float64, len(raw))
		for i, v := range raw {
			demands[i] = float64(v)/255.0 + 0.001
		}
		capacity := float64(capRaw)/255.0 + 0.01
		shares := MaxMinShares(demands, capacity)
		for i := range shares {
			if almostEq(shares[i], demands[i], 1e-9) {
				continue // fully granted
			}
			for j := range shares {
				if shares[j] > shares[i]+1e-6 && !almostEq(shares[j], demands[j], 1e-9) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestJainIndex(t *testing.T) {
	if got := JainIndex([]float64{1, 1, 1, 1}); !almostEq(got, 1.0, 1e-12) {
		t.Errorf("equal shares index %v, want 1", got)
	}
	if got := JainIndex([]float64{1, 0, 0, 0}); !almostEq(got, 0.25, 1e-12) {
		t.Errorf("starved index %v, want 0.25", got)
	}
	if JainIndex(nil) != 0 || JainIndex([]float64{0, 0}) != 0 {
		t.Error("degenerate Jain index should be 0")
	}
}

func TestMeanMinMax(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("mean of empty should be 0")
	}
	if got := Mean([]float64{1, 2, 3}); !almostEq(got, 2, 1e-12) {
		t.Errorf("mean %v", got)
	}
	lo, hi := MinMax([]float64{3, -1, 2})
	if lo != -1 || hi != 3 {
		t.Errorf("minmax %v %v", lo, hi)
	}
	lo, hi = MinMax(nil)
	if lo != 0 || hi != 0 {
		t.Error("empty minmax should be 0,0")
	}
}

func TestFlitsByFlowIsCopy(t *testing.T) {
	c := NewCollector(2)
	c.Delivered(0, 5, 1, 1)
	snap := c.FlitsByFlow()
	snap[0] = 999
	if c.DeliveredFlits[0] != 5 {
		t.Error("FlitsByFlow must return a copy")
	}
}
