package scenario

import (
	"fmt"
	"math"
)

// decoder pulls typed fields out of the map[string]any both file formats
// decode into, recording the first error instead of forcing a check at
// every call site. Sweep-axis accessors accept a scalar or a list under
// either the singular or plural key. When a Resolution is attached,
// failures become ParseErrors located at the offending key's source
// (layer + file:line); prefix is the decoder's dotted path from the
// scenario root ("" at the top level, "workload", "flows[2]", ...).
type decoder struct {
	raw    map[string]any
	err    error
	res    *Resolution
	prefix string
}

func (d *decoder) failKey(key, format string, args ...any) {
	if d.err != nil {
		return
	}
	cause := fmt.Errorf(format, args...)
	if d.prefix != "" {
		cause = fmt.Errorf("%s: %w", d.prefix, cause)
	}
	d.err = locate(d.res, joinPath(d.prefix, key), cause)
}

// pick returns the value under whichever of the two keys is present
// (empty key names are skipped); setting both is an error.
func (d *decoder) pick(keyA, keyB string) (any, string, bool) {
	va, oka := d.raw[keyA]
	var vb any
	okb := false
	if keyB != "" {
		vb, okb = d.raw[keyB]
	}
	switch {
	case oka && okb:
		d.failKey(keyA, "set either %q or %q, not both", keyA, keyB)
		return nil, "", false
	case oka:
		return va, keyA, true
	case okb:
		return vb, keyB, true
	}
	return nil, "", false
}

func (d *decoder) str(key, def string) string {
	v, ok := d.raw[key]
	if !ok {
		return def
	}
	s, ok := v.(string)
	if !ok {
		d.failKey(key, "%s must be a string, got %T", key, v)
		return def
	}
	return s
}

func (d *decoder) float(key string, def float64) float64 {
	v, ok := d.raw[key]
	if !ok {
		return def
	}
	f, ok := v.(float64)
	if !ok {
		d.failKey(key, "%s must be a number, got %T", key, v)
		return def
	}
	return f
}

func (d *decoder) int(key string, def int) int {
	v, ok := d.raw[key]
	if !ok {
		return def
	}
	f, ok := v.(float64)
	if !ok || f != math.Trunc(f) {
		d.failKey(key, "%s must be an integer, got %v", key, v)
		return def
	}
	return int(f)
}

// count is int for a key whose negative values mean nothing — a cycle, a
// size, a count — where zero already selects the default.
func (d *decoder) count(key string, def int) int {
	v := d.int(key, def)
	if v < 0 {
		d.failKey(key, "%s must not be negative, got %d", key, v)
		return def
	}
	return v
}

func (d *decoder) boolean(key string, def bool) bool {
	v, ok := d.raw[key]
	if !ok {
		return def
	}
	b, ok := v.(bool)
	if !ok {
		d.failKey(key, "%s must be a boolean, got %T", key, v)
		return def
	}
	return b
}

// asList normalizes a scalar-or-list value to a list.
func asList(v any) []any {
	if l, ok := v.([]any); ok {
		return l
	}
	return []any{v}
}

func (d *decoder) strList(keyA, keyB string) []string {
	v, key, ok := d.pick(keyA, keyB)
	if !ok {
		return nil
	}
	var out []string
	for _, el := range asList(v) {
		s, ok := el.(string)
		if !ok {
			d.failKey(key, "%s must hold strings, got %T", key, el)
			return nil
		}
		out = append(out, s)
	}
	return out
}

func (d *decoder) floatList(keyA, keyB string) []float64 {
	v, key, ok := d.pick(keyA, keyB)
	if !ok {
		return nil
	}
	var out []float64
	for _, el := range asList(v) {
		f, ok := el.(float64)
		if !ok {
			d.failKey(key, "%s must hold numbers, got %T", key, el)
			return nil
		}
		out = append(out, f)
	}
	return out
}

func (d *decoder) intList(keyA, keyB string) []int64 {
	v, key, ok := d.pick(keyA, keyB)
	if !ok {
		return nil
	}
	var out []int64
	for _, el := range asList(v) {
		f, ok := el.(float64)
		if !ok || f != math.Trunc(f) {
			d.failKey(key, "%s must hold integers, got %v", key, el)
			return nil
		}
		out = append(out, int64(f))
	}
	return out
}

// allowOnly rejects keys outside the given set (nested tables have their
// own key budget, unlike the top level's scenarioKeys map).
func (d *decoder) allowOnly(keys ...string) {
	allowed := map[string]bool{}
	for _, k := range keys {
		allowed[k] = true
	}
	for k := range d.raw {
		if !allowed[k] {
			d.failKey(k, "%w %q", ErrUnknownKey, k)
			return
		}
	}
}
