package stats

import (
	"math"
	"sort"
)

// Summary holds the dispersion statistics Table 2 reports for per-flow
// throughput: mean, extrema (as fractions of the mean) and standard
// deviation.
type Summary struct {
	Mean   float64
	Min    float64
	Max    float64
	StdDev float64
}

// Summarize computes dispersion statistics over per-flow values.
func Summarize(values []float64) Summary {
	var s Summary
	n := float64(len(values))
	if n == 0 {
		return s
	}
	s.Min = math.Inf(1)
	s.Max = math.Inf(-1)
	for _, v := range values {
		s.Mean += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean /= n
	var ss float64
	for _, v := range values {
		d := v - s.Mean
		ss += d * d
	}
	s.StdDev = math.Sqrt(ss / n)
	return s
}

// MinPctOfMean returns the minimum as a percentage of the mean (Table 2's
// "min (% of mean)" column).
func (s Summary) MinPctOfMean() float64 {
	if s.Mean == 0 {
		return 0
	}
	return 100 * s.Min / s.Mean
}

// MaxPctOfMean returns the maximum as a percentage of the mean.
func (s Summary) MaxPctOfMean() float64 {
	if s.Mean == 0 {
		return 0
	}
	return 100 * s.Max / s.Mean
}

// StdDevPctOfMean returns the standard deviation as a percentage of the
// mean (the coefficient of variation).
func (s Summary) StdDevPctOfMean() float64 {
	if s.Mean == 0 {
		return 0
	}
	return 100 * s.StdDev / s.Mean
}

// MaxDeviationPct returns the largest absolute deviation of min or max
// from the mean, in percent — the paper's "maximum deviation from the
// mean" fairness headline.
func (s Summary) MaxDeviationPct() float64 {
	lo := math.Abs(100 - s.MinPctOfMean())
	hi := math.Abs(s.MaxPctOfMean() - 100)
	if lo > hi {
		return lo
	}
	return hi
}

// MaxMinShares computes the max-min fair allocation of capacity among
// sources with the given demands (Dally & Towles' standard definition,
// which the paper uses for the Workload 1/2 expectations): demands below
// the water-fill level are fully granted; the remaining capacity is split
// equally among the unsatisfied sources.
//
// Demands and capacity share a unit (e.g. flits/cycle). The result has
// one share per demand, shares[i] <= demands[i], and the shares sum to
// min(capacity, sum(demands)).
func MaxMinShares(demands []float64, capacity float64) []float64 {
	shares := make([]float64, len(demands))
	if capacity <= 0 || len(demands) == 0 {
		return shares
	}
	type src struct {
		idx    int
		demand float64
	}
	order := make([]src, 0, len(demands))
	total := 0.0
	for i, d := range demands {
		if d < 0 {
			d = 0
		}
		order = append(order, src{i, d})
		total += d
	}
	if total <= capacity {
		for i, d := range demands {
			if d > 0 {
				shares[i] = d
			}
		}
		return shares
	}
	sort.Slice(order, func(a, b int) bool { return order[a].demand < order[b].demand })
	remaining := capacity
	for k, s := range order {
		level := remaining / float64(len(order)-k)
		if s.demand <= level {
			shares[s.idx] = s.demand
			remaining -= s.demand
		} else {
			// Everyone left demands more than the level: split
			// evenly.
			for _, rest := range order[k:] {
				shares[rest.idx] = level
			}
			return shares
		}
	}
	return shares
}

// JainIndex computes Jain's fairness index over per-flow values: 1.0 is
// perfectly fair, 1/n is maximally unfair. Used by the no-QoS starvation
// demonstrations.
func JainIndex(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum, sq float64
	for _, v := range values {
		sum += v
		sq += v * v
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(values)) * sq)
}

// Mean returns the arithmetic mean of values (0 for an empty slice).
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range values {
		s += v
	}
	return s / float64(len(values))
}

// MinMax returns the extrema of values.
func MinMax(values []float64) (lo, hi float64) {
	if len(values) == 0 {
		return 0, 0
	}
	lo, hi = values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}
