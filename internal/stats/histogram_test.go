package stats

import (
	"sort"
	"testing"
	"testing/quick"

	"tanoq/internal/sim"
)

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.count != 0 || h.Percentile(50) != 0 || h.max != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Observe(i)
	}
	if h.count != 100 {
		t.Fatalf("count %d", h.count)
	}
	if h.max != 100 {
		t.Fatalf("max %d", h.max)
	}
	if got := h.Percentile(100); got != 100 {
		t.Fatalf("p100 = %d", got)
	}
}

func TestHistogramNegativeClamped(t *testing.T) {
	var h Histogram
	h.Observe(-5)
	if h.count != 1 || h.max != 0 {
		t.Fatal("negative observation not clamped")
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	// Log buckets bound relative error by 2x within a bucket; with
	// interpolation the estimate should land within the bucket of the
	// exact percentile.
	var h Histogram
	values := []int64{3, 7, 12, 12, 20, 45, 80, 200, 500, 1000}
	for _, v := range values {
		h.Observe(v)
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, p := range []float64{10, 50, 90} {
		exact := sorted[int(p/100*float64(len(sorted)-1))]
		got := h.Percentile(p)
		if got < exact/2 || got > exact*2+2 {
			t.Errorf("p%.0f = %d, exact %d (outside 2x bucket bound)", p, got, exact)
		}
	}
}

func TestHistogramPercentileMonotoneProperty(t *testing.T) {
	var h Histogram
	r := uint64(12345)
	next := func() int64 {
		r = r*6364136223846793005 + 1442695040888963407
		return int64(r >> 40)
	}
	for i := 0; i < 5000; i++ {
		h.Observe(next())
	}
	check := func(a, b uint8) bool {
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return h.Percentile(pa) <= h.Percentile(pb)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	var h Histogram
	for i := 0; i < 1000; i++ {
		h.Observe(int64(i))
	}
	if got := h.Percentile(-5); got < 0 {
		t.Errorf("p<0 = %d", got)
	}
	if got := h.Percentile(200); got != h.max {
		t.Errorf("p>100 = %d, want max %d", got, h.max)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(42)
	h.Reset()
	if h.count != 0 || h.max != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestCollectorLatencyPercentiles(t *testing.T) {
	c := NewCollector(2)
	for i := 1; i <= 1000; i++ {
		c.Delivered(0, 1, int64(i), sim.Cycle(i))
	}
	p50 := c.Latencies.Percentile(50)
	p99 := c.Latencies.Percentile(99)
	if p50 < 250 || p50 > 1000 {
		t.Errorf("p50 = %d for uniform 1..1000", p50)
	}
	if p99 < p50 {
		t.Errorf("p99 %d < p50 %d", p99, p50)
	}
	c.Reset(0)
	if c.Latencies.count != 0 {
		t.Fatal("Reset must clear the latency histogram")
	}
}

func TestBucketOfBoundaries(t *testing.T) {
	cases := map[int64]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 1 << 20: 20}
	for v, want := range cases {
		if got := bucketOf(v); got != want {
			t.Errorf("bucketOf(%d) = %d, want %d", v, got, want)
		}
	}
	// Saturates instead of overflowing.
	if got := bucketOf(1 << 62); got != 47 {
		t.Errorf("bucketOf(2^62) = %d, want last bucket", got)
	}
}
