package sim

import (
	"math"
	"sync"
)

// GeoTable is an inverse-CDF lookup table for geometric draws with a fixed
// success probability — the hot path of injection sampling, where every
// packet costs one Geometric draw and math.Log1p dominates the cost.
//
// The table maps a uniform u in [0, 1) to exactly the value
// GeometricLog(p, log1p(-p)) computes from the same u: the quantile
// boundaries bound[k] are found by binary search over the float64 bit
// space against the log-formula itself, so every u on either side of a
// boundary classifies identically. Draw is therefore bit-identical to the
// formula while replacing the transcendental with one multiply, a jump
// table read and (on average) barely more than one comparison — the jump
// table is sized so the expected overshoot scan is tabMax/jumpN entries.
//
// Draws beyond the tabled range (the top ~q^tabMax of the distribution)
// fall back to the formula with the very same u, keeping the tail exact.
type GeoTable struct {
	// bound[k] is the largest float64 u for which the log formula yields
	// a value <= k; bound[0] = -1 so the scan below never underruns.
	bound [geoTabMax + 1]float64
	// jump[i] is the formula's value at the lowest u of jump bucket i —
	// the scan's starting candidate.
	jump [geoJumpN]uint16
	p    float64
	logQ float64
}

const (
	// geoTabMax boundaries cover all but ~(1-p)^geoTabMax of the mass
	// (3e-5 at p = 0.04, the engine's sub-saturation operating point).
	geoTabMax = 256
	// geoJumpN jump buckets keep the expected boundary scan per draw at
	// geoTabMax/geoJumpN entries.
	geoJumpN = 1024
)

// geoFormula is the exact expression GeometricLog evaluates after its
// uniform draw; the table is built against it and the tail falls back
// to it.
func geoFormula(u, logQ float64) int64 {
	g := math.Floor(math.Log1p(-u)/logQ) + 1
	if !(g < float64(maxGeometric)) { // also catches +Inf and NaN
		return maxGeometric
	}
	return int64(g)
}

// NewGeoTable builds the table for success probability p. It panics for
// p <= 0 like Geometric; p >= 1 is legal (Draw returns 1 without
// consuming randomness, as GeometricLog does).
func NewGeoTable(p float64) *GeoTable {
	if p <= 0 {
		panic("sim: GeoTable with non-positive success probability")
	}
	t := &GeoTable{p: p, logQ: math.Log1p(-p)}
	if p >= 1 {
		return t
	}
	t.bound[0] = -1
	// Largest representable u below 1.0: the search space's upper end.
	uMax := math.Float64frombits(math.Float64bits(1.0) - 1)
	for k := 1; k <= geoTabMax; k++ {
		t.bound[k] = t.bound[k-1]
		if geoFormula(uMax, t.logQ) <= int64(k) {
			// The whole range maps at or below k already (large p).
			t.bound[k] = uMax
			continue
		}
		// Binary search the float64 bit space of [bound[k-1], 1) for the
		// largest u still classified <= k. Float64bits is monotone over
		// non-negative floats, so bit-space bisection is value-space
		// bisection.
		lo := uint64(0)
		if t.bound[k-1] > 0 {
			lo = math.Float64bits(t.bound[k-1])
		}
		hi := math.Float64bits(1.0) - 1
		for lo < hi {
			mid := lo + (hi-lo+1)/2
			if geoFormula(math.Float64frombits(mid), t.logQ) <= int64(k) {
				lo = mid
			} else {
				hi = mid - 1
			}
		}
		t.bound[k] = math.Float64frombits(lo)
	}
	// jump[i] = the formula's value at bucket i's low edge: one forward
	// pass, since both bucket edges and boundaries are sorted.
	k := uint16(1)
	for i := 0; i < geoJumpN; i++ {
		edge := float64(i) / geoJumpN
		for int(k) < geoTabMax && t.bound[k] < edge {
			k++
		}
		t.jump[i] = k
	}
	return t
}

// Draw returns GeometricLog(p, log1p(-p))'s exact result, consuming one
// uniform draw from r (none for the degenerate p >= 1).
func (t *GeoTable) Draw(r *RNG) int64 {
	if t.p >= 1 {
		return 1
	}
	u := r.Float64()
	if u > t.bound[geoTabMax] {
		return geoFormula(u, t.logQ)
	}
	k := int64(t.jump[int(u*geoJumpN)])
	for u > t.bound[k] {
		k++
	}
	return k
}

// geoTables shares built tables across samplers: a sweep's sources
// overwhelmingly reuse a handful of rates. Keyed by the probability's
// bits; reads are lock-free after the first build of each rate.
var geoTables sync.Map

// SharedGeoTable returns the (possibly cached) table for p. Tables are
// immutable after construction and safe for concurrent Draw use — each
// draw's state lives in the caller's RNG.
func SharedGeoTable(p float64) *GeoTable {
	key := math.Float64bits(p)
	if v, ok := geoTables.Load(key); ok {
		return v.(*GeoTable)
	}
	v, _ := geoTables.LoadOrStore(key, NewGeoTable(p))
	return v.(*GeoTable)
}
