// Package sim provides the low-level simulation substrate shared by every
// model in tanoq: a deterministic, seedable random number generator and a
// cycle clock. Determinism matters here — every experiment in the paper is
// regenerated from a fixed seed, so two runs of the same harness must
// produce bit-identical results.
package sim

import "math"

// RNG is a deterministic pseudo-random number generator based on
// SplitMix64 (Steele, Lea, Flood — "Fast Splittable Pseudorandom Number
// Generators", OOPSLA 2014). It is small, fast, allocation-free and passes
// BigCrush, which is more than sufficient for stochastic traffic
// generation. The zero value is a valid generator seeded with 0.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. Distinct seeds yield
// independent-looking streams.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed}
}

// Seed resets the generator to the stream identified by seed.
func (r *RNG) Seed(seed uint64) { r.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// SplitInto derives a new, statistically independent generator from r
// into dst. The derived stream does not overlap r's stream for any
// practical length; it gives each traffic injector its own private stream
// so that adding or removing injectors does not perturb the others. It
// writes into an existing generator because its callers keep their RNGs
// by value (the engine's sources) and re-seed them on reuse instead of
// allocating.
func (r *RNG) SplitInto(dst *RNG) {
	dst.state = r.Uint64() ^ 0x6a09e667f3bcc909
}

// Intn returns a uniformly distributed integer in [0, n). It panics when
// n <= 0. Lemire's multiply-shift rejection method keeps the result
// unbiased without a modulo in the common path.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	bound := uint64(n)
	for {
		v := r.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 computes the 128-bit product of a and b, returning the high and low
// 64-bit halves. Written out long-hand to stay allocation-free on every
// platform without importing math/bits semantics concerns (math/bits would
// be fine too; this keeps the dependency surface explicit).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	a0, a1 := a&mask32, a>>32
	b0, b1 := b&mask32, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Float64 returns a uniformly distributed float in [0, 1) with 53 bits of
// precision.
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bernoulli returns true with probability p (clamped to [0, 1]).
func (r *RNG) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// maxGeometric caps Geometric's result so that the float intermediate can
// never overflow int64 (possible for sub-denormal success probabilities).
// 1<<62 cycles is beyond any simulable horizon, so the cap is unobservable.
const maxGeometric = int64(1) << 62

// Geometric returns the number of Bernoulli(p) trials up to and including
// the first success — support {1, 2, ...}, mean 1/p — via the inverse CDF:
// G = floor(log(1-U)/log(1-p)) + 1. Drawing inter-arrival gaps from this
// distribution reproduces a per-cycle Bernoulli(p) arrival process exactly
// (each cycle after an arrival succeeds independently with probability p),
// while consuming one uniform draw per arrival instead of one per cycle —
// the sampling half of the engine's O(work) redesign. log1p keeps the
// quantile accurate for tiny p, where log(1-p) would lose all precision.
func (r *RNG) Geometric(p float64) int64 {
	return r.GeometricLog(p, math.Log1p(-p))
}

// GeometricLog is Geometric with the quantile denominator log(1-p)
// precomputed by the caller. The denominator is a per-distribution
// constant, and log1p dominated the cost of a draw on the engine's
// injection path — a sampler that draws per packet caches it once
// (traffic.ArrivalSampler). Passing the exact same float the inline
// computation produced keeps the division — and therefore every drawn
// gap — bit-identical to Geometric.
func (r *RNG) GeometricLog(p, logQ float64) int64 {
	if p >= 1 {
		return 1
	}
	if p <= 0 {
		panic("sim: Geometric with non-positive success probability")
	}
	u := r.Float64()
	g := math.Floor(math.Log1p(-u)/logQ) + 1
	if !(g < float64(maxGeometric)) { // also catches +Inf and NaN
		return maxGeometric
	}
	return int64(g)
}
