package scenario

import (
	"fmt"
	"math"
)

// decoder pulls typed values out of one table of the map[string]any both
// file formats decode into, for the field-table row in hand, recording
// the first error instead of forcing a check at every call site. Sweep-
// axis accessors accept a scalar or a list under either the singular or
// the plural key. When a Resolution is attached, failures become
// ParseErrors located at the offending key's source (layer + file:line);
// prefix is the table's dotted path from the scenario root ("" at the top
// level, "workload", "flows[2]", ...).
type decoder struct {
	raw    map[string]any
	err    error
	res    *Resolution
	prefix string
	// key and plural are the row's spellings; at is the one that was set
	// (key when neither was), where a failure is located.
	key, plural, at string
}

func (d *decoder) fail(format string, args ...any) {
	if d.err != nil {
		return
	}
	cause := fmt.Errorf(format, args...)
	if d.prefix != "" {
		cause = fmt.Errorf("%s: %w", d.prefix, cause)
	}
	d.err = locate(d.res, joinPath(d.prefix, d.at), cause)
}

// has reports whether the row's key is set.
func (d *decoder) has() bool {
	_, ok := d.raw[d.key]
	return ok
}

// pick returns the value under whichever spelling is present; setting
// both is an error. (No table accepts an empty key, so a row without a
// plural finds nothing under it.)
func (d *decoder) pick() (any, bool) {
	va, oka := d.raw[d.key]
	vb, okb := d.raw[d.plural]
	switch {
	case oka && okb:
		d.fail("set either %q or %q, not both", d.key, d.plural)
		return nil, false
	case okb:
		d.at = d.plural
		return vb, true
	}
	return va, oka
}

// scalar returns the row's value as a T (want names it for the error),
// def when the key is absent.
func scalar[T any](d *decoder, want string, def T) T {
	v, ok := d.raw[d.key]
	if !ok {
		return def
	}
	t, ok := v.(T)
	if !ok {
		d.fail("%s must be %s, got %T", d.key, want, v)
		return def
	}
	return t
}

func (d *decoder) str(def string) string     { return scalar(d, "a string", def) }
func (d *decoder) float(def float64) float64 { return scalar(d, "a number", def) }
func (d *decoder) boolean(def bool) bool     { return scalar(d, "a boolean", def) }

func (d *decoder) int(def int) int {
	f := scalar(d, "an integer", float64(def))
	if f != math.Trunc(f) {
		d.fail("%s must be an integer, got %v", d.key, f)
		return def
	}
	return int(f)
}

// count is int for a key whose negative values mean nothing.
func (d *decoder) count(def int) int {
	v := d.int(def)
	if v < 0 {
		d.fail("%s must not be negative, got %d", d.key, v)
		return def
	}
	return v
}

// list returns the row's value as a list (a scalar is a one-element
// list), converting each element with conv; nil when the key is absent
// or an element does not convert.
func list[T any](d *decoder, want string, conv func(any) (T, bool)) []T {
	v, ok := d.pick()
	if !ok {
		return nil
	}
	els, isList := v.([]any)
	if !isList {
		els = []any{v}
	}
	var out []T
	for _, el := range els {
		t, ok := conv(el)
		if !ok {
			d.fail("%s must hold %s, got %v", d.at, want, el)
			return nil
		}
		out = append(out, t)
	}
	return out
}

func (d *decoder) strs() []string {
	return list(d, "strings", func(v any) (string, bool) { s, ok := v.(string); return s, ok })
}

func (d *decoder) floats() []float64 {
	return list(d, "numbers", func(v any) (float64, bool) { f, ok := v.(float64); return f, ok })
}

func (d *decoder) ints() []int64 {
	return list(d, "integers", func(v any) (int64, bool) {
		f, ok := v.(float64)
		return int64(f), ok && f == math.Trunc(f)
	})
}
