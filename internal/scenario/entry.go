package scenario

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"tanoq/internal/store"
)

// This file is the cache payload codec. A payload is one flat JSON object
// of numbers, and one ordered field list per payload type both writes it
// and reads it back, so the two cannot drift. The encoder writes exactly
// what json.Marshal makes of the row (the json tags below name the same
// fields in the same order, and the tests hold the two to the same
// bytes); the decoder accepts exactly what the encoder writes — fields in
// order, numbers in encoding/json's spelling — and nothing else, so an
// entry either reads back as the row that wrote it or is a miss.

// payload is a visible cell's cache entry. The Point is not stored — it
// is re-derived from the grid on every read, so a cached row can never
// carry a stale label.
type payload struct {
	metrics
	Attempts int64         `json:"attempts"`
	Wall     time.Duration `json:"wall_ns"`
}

// refPayload is a victim-reference cell's cache payload: the baseline
// the slowdown column divides by.
type refPayload struct {
	VictimMean float64 `json:"victim_mean"`
}

// payloadCodec is payload's field list; testdata/payload.golden pins its
// bytes.
var payloadCodec = codec[payload]{
	f64("mean_latency", func(p *payload) *float64 { return &p.MeanLatency }),
	f64("p99_latency", func(p *payload) *float64 { return &p.P99Latency }),
	f64("accepted", func(p *payload) *float64 { return &p.Accepted }),
	f64("preemption_pct", func(p *payload) *float64 { return &p.PreemptionPct }),
	i64("delivered", func(p *payload) *int64 { return &p.Delivered }),
	i64("end", func(p *payload) *int64 { return (*int64)(&p.End) }),
	f64("tput_min_pct", func(p *payload) *float64 { return &p.TputMinPct }),
	f64("tput_max_pct", func(p *payload) *float64 { return &p.TputMaxPct }),
	f64("tput_stddev_pct", func(p *payload) *float64 { return &p.TputStdDevPct }),
	i64("completed", func(p *payload) *int64 { return &p.Completed }),
	f64("mean_rtt", func(p *payload) *float64 { return &p.MeanRTT }),
	f64("p99_rtt", func(p *payload) *float64 { return &p.P99RTT }),
	f64("delivered_fraction", func(p *payload) *float64 { return &p.DeliveredFraction }),
	i64("retries", func(p *payload) *int64 { return &p.Retries }),
	i64("drops", func(p *payload) *int64 { return &p.Drops }),
	f64("mean_recovery", func(p *payload) *float64 { return &p.MeanRecovery }),
	f64("victim_slowdown", func(p *payload) *float64 { return &p.VictimSlowdown }),
	i64("attempts", func(p *payload) *int64 { return &p.Attempts }),
	i64("wall_ns", func(p *payload) *int64 { return (*int64)(&p.Wall) }),
}

// refCodec is refPayload's field list.
var refCodec = codec[refPayload]{
	f64("victim_mean", func(p *refPayload) *float64 { return &p.VictimMean }),
}

// entryField is one field of a cache payload of type T: its JSON name and a
// pointer to its value in a row, a float or an integer — exactly one of
// flt and num is set.
type entryField[T any] struct {
	name string
	flt  func(*T) *float64
	num  func(*T) *int64
}

func f64[T any](name string, at func(*T) *float64) entryField[T] {
	return entryField[T]{name: name, flt: at}
}

func i64[T any](name string, at func(*T) *int64) entryField[T] {
	return entryField[T]{name: name, num: at}
}

// codec is a payload type's fields in the order they are stored.
type codec[T any] []entryField[T]

// encode appends row's payload to b: {"name":value,...} in field order,
// each value as encoding/json spells it. Like encoding/json, it fails on
// a NaN or infinite float, and the error names the field.
func (c codec[T]) encode(b []byte, row *T) ([]byte, error) {
	sep := byte('{')
	for i := range c {
		f := &c[i]
		b = append(append(append(b, sep, '"'), f.name...), '"', ':')
		sep = ','
		if f.num != nil {
			b = strconv.AppendInt(b, *f.num(row), 10)
			continue
		}
		v := *f.flt(row)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return b, fmt.Errorf("payload field %s: unsupported value %v", f.name, v)
		}
		b = appendJSONFloat(b, v)
	}
	return append(b, '}'), nil
}

// appendJSONFloat appends v as encoding/json spells a float64: strconv's
// shortest form, in e notation below 1e-6 and from 1e21, with a one-digit
// negative exponent left unpadded (3.5e-7, not 3.5e-07).
func appendJSONFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// decode reads a payload encode wrote. It takes the fields in order and
// parses each value, then re-encodes the row and requires the input's
// exact bytes back, so only the canonical spelling of each number is
// read: anything else — a reordered, missing or unknown field, space, an
// exponent or sign encode would not write — is rejected.
func (c codec[T]) decode(b []byte) (T, bool) {
	var row, zero T
	rest := b
	for i := range c {
		f := &c[i]
		sep := byte(',')
		if i == 0 {
			sep = '{'
		}
		k := len(f.name) + 4 // the separator, the quoted name and the colon
		if len(rest) < k || rest[0] != sep || rest[1] != '"' || string(rest[2:k-2]) != f.name || string(rest[k-2:k]) != `":` {
			return zero, false
		}
		rest = rest[k:]
		n := 0
		for n < len(rest) && strings.IndexByte("0123456789+-.eE", rest[n]) >= 0 {
			n++
		}
		var err error
		if f.num != nil {
			*f.num(&row), err = strconv.ParseInt(string(rest[:n]), 10, 64)
		} else {
			*f.flt(&row), err = strconv.ParseFloat(string(rest[:n]), 64)
		}
		if err != nil {
			return zero, false
		}
		rest = rest[n:]
	}
	if string(rest) != "}" {
		return zero, false
	}
	var scratch [512]byte
	again, err := c.encode(scratch[:0], &row)
	if err != nil || !bytes.Equal(again, b) {
		return zero, false
	}
	return row, true
}

// load looks key up in st and decodes its payload; a miss, or a payload
// decode rejects, is false.
func (c codec[T]) load(st *store.Store, key string) (T, bool) {
	return store.Load(st, key, c.decode)
}

// put encodes row and stores it under key.
func (c codec[T]) put(st *store.Store, key string, row *T) error {
	blob, err := c.encode(nil, row)
	if err != nil {
		return err
	}
	return st.Put(key, blob)
}
