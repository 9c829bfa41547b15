package stats

// Histogram is a log₂-bucketed histogram for latency distributions: cheap
// to update per delivery, and precise enough for the tail percentiles a
// QoS evaluation cares about (each bucket spans a factor of two; the
// percentile estimate interpolates linearly within a bucket).
type Histogram struct {
	// buckets[i] counts observations v with 2^i <= v < 2^(i+1);
	// buckets[0] also absorbs v <= 1.
	buckets [48]int64
	count   int64
	max     int64
}

// Observe records one sample (negative samples are clamped to zero).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[bucketOf(v)]++
	h.count++
	if v > h.max {
		h.max = v
	}
}

func bucketOf(v int64) int {
	b := 0
	for v > 1 {
		v >>= 1
		b++
	}
	if b >= len(Histogram{}.buckets) {
		b = len(Histogram{}.buckets) - 1
	}
	return b
}

// Percentile estimates the p-th percentile (p in [0,100]) by linear
// interpolation within the containing power-of-two bucket. Returns 0 for
// an empty histogram.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		p = 0
	}
	if p >= 100 {
		return h.max
	}
	target := p / 100 * float64(h.count)
	var cum float64
	for i, c := range h.buckets {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= target {
			lo := int64(1) << uint(i)
			if i == 0 {
				lo = 0
			}
			hi := int64(1) << uint(i+1)
			if hi > h.max {
				hi = h.max + 1
			}
			frac := (target - cum) / float64(c)
			return lo + int64(frac*float64(hi-lo))
		}
		cum = next
	}
	return h.max
}

// Reset clears the histogram.
func (h *Histogram) Reset() {
	*h = Histogram{}
}
