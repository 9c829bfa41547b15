package scenario

import (
	"encoding/json"
	"strconv"
	"time"
)

// This file declares a sweep row's output columns once. The CSV header,
// the CSV rows (behind a leading scenario-name column) and the records of
// the -out JSON report all walk the one table below, so the CSV header
// cells and the JSON keys are the same names in the same order. The
// aligned tables and the degradation CSV (degrade.go) keep their own
// layouts.

// column is one output column of a sweep row: its name (the CSV header
// cell and the JSON key) and one typed accessor — exactly one of str,
// num and flt is set.
type column struct {
	name string
	// omitempty leaves the key out of a JSON record whose value is zero.
	omitempty bool
	// prec is a float column's digits after the point in CSV.
	prec int
	str  func(*Result) string
	num  func(*Result) int64
	flt  func(*Result) float64
}

func str(name string, at func(*Result) string) column { return column{name: name, str: at} }

func integer(name string, at func(*Result) int64) column { return column{name: name, num: at} }

// fixed declares a float column printed with prec digits after the point in CSV.
func fixed(name string, prec int, at func(*Result) float64) column {
	return column{name: name, prec: prec, flt: at}
}

// optional leaves c out of JSON records where it is zero.
func optional(c column) column {
	c.omitempty = true
	return c
}

var columns = []column{
	str("workload", func(r *Result) string { return r.Workload }),
	str("pattern", func(r *Result) string { return r.Pattern }),
	str("topology", func(r *Result) string { return r.Topology.String() }),
	str("qos", func(r *Result) string { return r.Mode.String() }),
	// Seeds decode from non-negative integers, so every one fits.
	integer("seed", func(r *Result) int64 { return int64(r.Seed) }),
	fixed("rate", 4, func(r *Result) float64 { return r.Rate }),
	optional(integer("outstanding", func(r *Result) int64 { return int64(r.Outstanding) })),
	optional(fixed("think_time", 1, func(r *Result) float64 { return r.Think })),
	optional(integer("retry_timeout", func(r *Result) int64 { return int64(r.RetryTimeout) })),
	optional(integer("max_retries", func(r *Result) int64 { return int64(r.MaxRetries) })),
	fixed("mean_latency_cycles", 3, func(r *Result) float64 { return r.MeanLatency }),
	fixed("p99_latency_cycles", 0, func(r *Result) float64 { return r.P99Latency }),
	fixed("accepted_flits_per_cycle", 4, func(r *Result) float64 { return r.Accepted }),
	fixed("preemption_pct", 4, func(r *Result) float64 { return r.PreemptionPct }),
	integer("delivered_packets", func(r *Result) int64 { return r.Delivered }),
	fixed("tput_min_pct_of_mean", 2, func(r *Result) float64 { return r.TputMinPct }),
	fixed("tput_max_pct_of_mean", 2, func(r *Result) float64 { return r.TputMaxPct }),
	fixed("tput_stddev_pct_of_mean", 2, func(r *Result) float64 { return r.TputStdDevPct }),
	optional(integer("completed_requests", func(r *Result) int64 { return r.Completed })),
	optional(fixed("mean_rtt_cycles", 3, func(r *Result) float64 { return r.MeanRTT })),
	optional(fixed("p99_rtt_cycles", 0, func(r *Result) float64 { return r.P99RTT })),
	fixed("delivered_fraction", 6, func(r *Result) float64 { return r.DeliveredFraction }),
	optional(integer("retries", func(r *Result) int64 { return r.Retries })),
	optional(integer("drops", func(r *Result) int64 { return r.Drops })),
	optional(fixed("mean_recovery_cycles", 1, func(r *Result) float64 { return r.MeanRecovery })),
	optional(fixed("victim_slowdown", 3, func(r *Result) float64 { return r.VictimSlowdown })),
	// The wall-clock columns: the only ones two runs of a cell differ in.
	optional(fixed("wall_ms", 1, func(r *Result) float64 { return float64(r.Wall) / float64(time.Millisecond) })),
	optional(fixed("cycles_per_sec", 0, cyclesPerSec)),
	integer("attempts", func(r *Result) int64 { return int64(r.Attempts) }),
	optional(str("error", func(r *Result) string { return r.Error })),
}

// appendCSVRow appends r's CSV line behind esc, the escaped scenario name.
func appendCSVRow(b []byte, esc string, r *Result) []byte {
	b = append(b, esc...)
	for i := range columns {
		c := &columns[i]
		b = append(b, ',')
		switch {
		case c.str != nil:
			b = append(b, csvEscape(c.str(r))...)
		case c.num != nil:
			b = strconv.AppendInt(b, c.num(r), 10)
		default:
			b = strconv.AppendFloat(b, c.flt(r), 'f', c.prec, 64)
		}
	}
	return append(b, '\n')
}

// appendJSONRow appends r's record as json.MarshalIndent lays out an
// element of the report's results array: keys in column order, each on
// its own line six spaces in, the closing brace four, every value as
// encoding/json formats it.
func appendJSONRow(b []byte, r *Result) ([]byte, error) {
	sep := "{\n      \""
	for i := range columns {
		c := &columns[i]
		var v any
		switch {
		case c.str != nil:
			v = c.str(r)
		case c.num != nil:
			v = c.num(r)
		default:
			v = c.flt(r)
		}
		if c.omitempty && (v == "" || v == int64(0) || v == 0.0) {
			continue
		}
		q, err := json.Marshal(v)
		if err != nil {
			return b, err
		}
		b = append(append(append(append(b, sep...), c.name...), "\": "...), q...)
		sep = ",\n      \""
	}
	return append(b, "\n    }"...), nil
}
