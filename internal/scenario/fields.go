package scenario

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// This file holds the field table: one row per scenario key, nested
// tables and array-of-tables elements included, saying how the key
// decodes, what -explain lists as its default, which cells read it and
// what it adds to their cache keys. The decoder, the accepted key sets,
// the singular/plural aliases, -explain's defaults and every cache key
// are built from it; TestCacheKeySound checks each row's reads set.

// kinds is a set of cell kinds: the cells whose result a key can change.
type kinds uint8

const (
	kOpen      kinds = 1 << iota // open-loop pattern × rate cells
	kFlows                       // explicit-flows cells
	kClosed                      // closed-loop client cells
	kReplay                      // trace-replay cells
	kVictimRef                   // hidden victim-only reference cells
	// kHotspot narrows a row to cells on the "hotspot" pattern.
	kHotspot

	kAll    = kOpen | kFlows | kClosed | kReplay | kVictimRef
	kShaped = kOpen | kFlows | kVictimRef // cells the stochastic generators drive
	kFaults = kOpen | kFlows              // cells the fault subsystem applies to
)

// kindNames are the kinds' names in a cell's canonical bytes.
var kindNames = map[kinds]string{kOpen: "open", kFlows: "flows", kClosed: "closed",
	kReplay: "replay", kVictimRef: "victim-ref"}

// rec is what a row decodes into and keys from: the scenario, the
// array-of-tables element in hand (a flow or a fault window), and — when
// keying — the cell's point, kind and replay-trace digest.
type rec struct {
	sc     *Scenario
	flow   *FlowSpec
	win    *noc.FaultWindow
	p      *Point
	kind   kinds
	digest string
}

// field is one row of the table.
type field struct {
	// key is the dotted path; a "[]" suffix names an array of tables
	// ("flows[]"), whose element keys sit under it ("flows[].rate").
	key string
	// plural is a sweep axis's plural spelling ("rates"); either spelling
	// is accepted and a later layer's retires an earlier one's.
	plural string
	// decode reads the key from d into r, applying the default when the
	// key is absent. An array row's decode appends one fresh element and
	// points r at it, before the element's own rows decode.
	decode func(d *decoder, r *rec)
	// explain renders the default -explain lists when no layer sets the
	// key ("" = nothing to list); nil for keys without a listed default.
	// Only top-level rows have one.
	explain func(sc *Scenario) string
	// reads is the set of cells whose result the key can change; zero
	// keeps the key out of every cache key.
	reads kinds
	// canon appends the key's value for the cell in r: unambiguous bytes
	// (quoted strings, shortest round-trip floats), axis values taken
	// from the cell's Point.
	canon func(b []byte, r *rec) []byte
	// each visits an array row's elements for the cell in r, pointing r
	// at each in turn.
	each func(r *rec, visit func())
}

var fields = []field{
	{key: "name", decode: func(d *decoder, r *rec) { r.sc.Name = d.str("") }},
	{key: "pattern", plural: "patterns", reads: kOpen | kClosed,
		decode:  func(d *decoder, r *rec) { r.sc.Patterns = d.strs() },
		explain: func(sc *Scenario) string { return quotedList(sc.Patterns, func(s string) string { return s }) },
		canon:   func(b []byte, r *rec) []byte { return strconv.AppendQuote(b, r.p.Pattern) }},
	{key: "topology", plural: "topologies", reads: kAll,
		decode: func(d *decoder, r *rec) {
			for _, name := range d.strs() {
				ks, err := topologyByName(name)
				if err != nil {
					d.fail("%w", err)
					return
				}
				r.sc.Topologies = append(r.sc.Topologies, ks...)
			}
		},
		explain: func(sc *Scenario) string { return quotedList(sc.Topologies, topology.Kind.String) },
		canon:   func(b []byte, r *rec) []byte { return strconv.AppendQuote(b, r.p.Topology.String()) }},
	{key: "qos", reads: kAll,
		decode: func(d *decoder, r *rec) {
			for _, name := range d.strs() {
				modes, err := modeByName(name)
				if err != nil {
					d.fail("%w", err)
					return
				}
				r.sc.Modes = append(r.sc.Modes, modes...)
			}
		},
		explain: func(sc *Scenario) string { return quotedList(sc.Modes, qos.Mode.String) },
		canon:   func(b []byte, r *rec) []byte { return strconv.AppendQuote(b, r.p.Mode.String()) }},
	{key: "rate", plural: "rates", reads: kOpen,
		decode: func(d *decoder, r *rec) { r.sc.Rates = d.floats() },
		canon:  func(b []byte, r *rec) []byte { return appendFloat(b, r.p.Rate) }},
	{key: "seed", plural: "seeds", reads: kAll,
		decode: func(d *decoder, r *rec) {
			for _, s := range d.ints() {
				if s < 0 {
					d.fail("%s must not be negative, got %d", d.at, s)
					return
				}
				r.sc.Seeds = append(r.sc.Seeds, uint64(s))
			}
		},
		explain: func(sc *Scenario) string {
			parts := make([]string, len(sc.Seeds))
			for i, s := range sc.Seeds {
				parts[i] = strconv.FormatUint(s, 10)
			}
			return "[" + strings.Join(parts, ", ") + "]"
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendUint(b, r.p.Seed, 10) }},
	explained(num("nodes", topology.ColumnNodes, kAll, func(r *rec) *int { return &r.sc.Nodes })),
	explained(num("warmup", 20_000, kAll, func(r *rec) *int { return &r.sc.Warmup })),
	explained(num("measure", 100_000, kAll, func(r *rec) *int { return &r.sc.Measure })),
	count("stop_at", kShaped, func(r *rec) *sim.Cycle { return &r.sc.StopAt }),
	flt("request_fraction", traffic.DefaultRequestFraction, kShaped, func(r *rec) *float64 { return &r.sc.RequestFraction }),
	{key: "hotspot_weights", reads: kOpen | kClosed | kHotspot,
		decode: func(d *decoder, r *rec) { r.sc.HotspotWeights = d.floats() },
		canon: func(b []byte, r *rec) []byte {
			b = append(b, '[')
			for i, w := range r.sc.HotspotWeights {
				if i > 0 {
					b = append(b, ',')
				}
				b = appendFloat(b, w)
			}
			return append(b, ']')
		}},
	count("frame_cycles", kAll, func(r *rec) *sim.Cycle { return &r.sc.FrameCycles }),
	count("window_packets", kAll, func(r *rec) *int { return &r.sc.WindowPackets }),
	count("quantum_flits", kAll, func(r *rec) *int { return &r.sc.QuantumFlits }),
	count("margin_classes", kAll, func(r *rec) *int { return &r.sc.MarginClasses }),

	flt("burst.mean_on", 0, kShaped, func(r *rec) *float64 { return &r.sc.Burst.MeanOn }),
	flt("burst.mean_off", 0, kShaped, func(r *rec) *float64 { return &r.sc.Burst.MeanOff }),

	// Explicit flows: the whole list for flows cells, the victims for
	// their reference cells. A role is keyed: a victim adds the slowdown
	// column.
	{key: "flows[]", reads: kFlows | kVictimRef,
		decode: func(d *decoder, r *rec) {
			r.sc.Flows = append(r.sc.Flows, FlowSpec{})
			r.flow = &r.sc.Flows[len(r.sc.Flows)-1]
		},
		each: func(r *rec, visit func()) {
			for i := range r.sc.Flows {
				if r.flow = &r.sc.Flows[i]; r.kind != kVictimRef || r.flow.Role == "victim" {
					visit()
				}
			}
		}},
	num("flows[].node", 0, kFlows|kVictimRef, func(r *rec) *int { return &r.flow.Node }),
	num("flows[].injector", 0, kFlows|kVictimRef, func(r *rec) *int { return &r.flow.Injector }),
	flt("flows[].rate", 0, kFlows|kVictimRef, func(r *rec) *float64 { return &r.flow.Rate }),
	{key: "flows[].dest", reads: kFlows | kVictimRef,
		decode: func(d *decoder, r *rec) {
			if s, ok := d.raw[d.key].(string); ok {
				if s != "hotspot" {
					d.fail("dest %q (want a node index or \"hotspot\")", s)
				}
				r.flow.Dest = int(traffic.HotspotNode)
				return
			}
			r.flow.Dest = d.int(int(traffic.HotspotNode))
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendInt(b, int64(r.flow.Dest), 10) }},
	count("flows[].stop_at", kFlows|kVictimRef, func(r *rec) *sim.Cycle { return &r.flow.StopAt }),
	{key: "flows[].role", reads: kFlows | kVictimRef,
		decode: func(d *decoder, r *rec) { r.flow.Role = d.str("") },
		canon:  func(b []byte, r *rec) []byte { return strconv.AppendQuote(b, r.flow.Role) }},

	// The [workload] table. The mode axis is the cell's kind; a closed
	// cell's window and think time come from its point.
	{key: "workload.mode", plural: "modes", reads: kOpen | kClosed,
		decode: func(d *decoder, r *rec) { r.sc.WorkloadModes = d.strs() },
		canon:  func(b []byte, r *rec) []byte { return strconv.AppendQuote(b, r.p.Workload) }},
	{key: "workload.outstanding", reads: kClosed,
		decode: func(d *decoder, r *rec) {
			for _, o := range d.ints() {
				r.sc.Outstanding = append(r.sc.Outstanding, int(o))
			}
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendInt(b, int64(r.p.Outstanding), 10) }},
	{key: "workload.think_time", plural: "think_times", reads: kClosed,
		decode: func(d *decoder, r *rec) { r.sc.ThinkTimes = d.floats() },
		canon:  func(b []byte, r *rec) []byte { return appendFloat(b, r.p.Think) }},
	num("workload.request_flits", 0, kClosed, func(r *rec) *int { return &r.sc.RequestFlits }),
	num("workload.reply_flits", 0, kClosed, func(r *rec) *int { return &r.sc.ReplyFlits }),
	// A replay cell keys its label and the SHA-256 of the trace file's
	// bytes: editing a trace in place retires its cached rows.
	{key: "workload.trace", plural: "traces", reads: kReplay,
		decode: func(d *decoder, r *rec) { r.sc.Traces = d.strs() },
		canon: func(b []byte, r *rec) []byte {
			return append(append(strconv.AppendQuote(b, r.p.Workload), ' '), r.digest...)
		}},

	// The [faults] table: the recovery axes come from the cell's point.
	{key: "faults.retry_timeout", plural: "retry_timeouts", reads: kFaults,
		decode: func(d *decoder, r *rec) {
			for _, t := range d.ints() {
				r.sc.RetryTimeouts = append(r.sc.RetryTimeouts, sim.Cycle(t))
			}
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendInt(b, int64(r.p.RetryTimeout), 10) }},
	{key: "faults.max_retries", reads: kFaults,
		decode: func(d *decoder, r *rec) {
			for _, m := range d.ints() {
				r.sc.MaxRetriesAxis = append(r.sc.MaxRetriesAxis, int(m))
			}
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendInt(b, int64(r.p.MaxRetries), 10) }},
	num("faults.watchdog_cycles", 0, kFaults, func(r *rec) *sim.Cycle { return &r.sc.WatchdogCycles }),
	// [[faults.link]] windows are transient unless permanent = true;
	// [[faults.router]] windows stall a whole router.
	{key: "faults.link[]", reads: kFaults,
		decode: func(d *decoder, r *rec) { r.addWindow(noc.FaultLinkTransient) },
		each:   func(r *rec, visit func()) { r.eachWindow(false, visit) }},
	num("faults.link[].port", 0, kFaults, func(r *rec) *int { return &r.win.Port }),
	num("faults.link[].from", 0, kFaults, func(r *rec) *sim.Cycle { return &r.win.From }),
	num("faults.link[].until", 0, kFaults, func(r *rec) *sim.Cycle { return &r.win.Until }),
	{key: "faults.link[].permanent", reads: kFaults,
		decode: func(d *decoder, r *rec) {
			if d.boolean(false) {
				r.win.Kind = noc.FaultLinkPermanent
			}
		},
		canon: func(b []byte, r *rec) []byte { return strconv.AppendBool(b, r.win.Kind == noc.FaultLinkPermanent) }},
	{key: "faults.router[]", reads: kFaults,
		decode: func(d *decoder, r *rec) { r.addWindow(noc.FaultRouterStall) },
		each:   func(r *rec, visit func()) { r.eachWindow(true, visit) }},
	num("faults.router[].node", 0, kFaults, func(r *rec) *int { return &r.win.Node }),
	num("faults.router[].from", 0, kFaults, func(r *rec) *sim.Cycle { return &r.win.From }),
	num("faults.router[].until", 0, kFaults, func(r *rec) *sim.Cycle { return &r.win.Until }),

	// The [run] table bounds and retries the execution of cells; it never
	// changes a result.
	{key: "run.deadline_ms", decode: func(d *decoder, r *rec) {
		if ms, set := d.int(0), d.has(); set && ms <= 0 {
			d.fail("%s %d must be positive (omit the key for no deadline)", d.key, ms)
		} else {
			r.sc.Deadline = time.Duration(ms) * time.Millisecond
		}
	}},
	{key: "run.retries", decode: func(d *decoder, r *rec) {
		switch n := d.int(0); {
		case n < 0:
			d.fail("negative %s %d", d.key, n)
		case n == 0 && d.has():
			r.sc.Retries = -1 // explicit zero: no retries (0 means "default")
		default:
			r.sc.Retries = n
		}
	}},
	{key: "run.backoff_ms", decode: func(d *decoder, r *rec) {
		if ms := d.int(0); ms < 0 {
			d.fail("negative %s %d", d.key, ms)
		} else {
			r.sc.Backoff = time.Duration(ms) * time.Millisecond
		}
	}},
	{key: "run.cache", decode: func(d *decoder, r *rec) { r.sc.Cache = d.boolean(false) }},

	// The [telemetry] table: display-only probes, never keyed.
	{key: "telemetry.interval", decode: func(d *decoder, r *rec) { r.telemetry().Interval = sim.Cycle(d.int(0)) }},
	{key: "telemetry.series", decode: func(d *decoder, r *rec) { r.telemetry().Series = d.strs() }},
	{key: "telemetry.top_flows", decode: func(d *decoder, r *rec) { r.telemetry().TopFlows = d.int(0) }},
}

// num declares an integer key held at *at(r), def when absent.
func num[T ~int | ~int64](key string, def T, reads kinds, at func(*rec) *T) field {
	return field{key: key, reads: reads,
		decode: func(d *decoder, r *rec) { *at(r) = T(d.int(int(def))) },
		canon:  func(b []byte, r *rec) []byte { return strconv.AppendInt(b, int64(*at(r)), 10) }}
}

// count is num for a key whose negative values mean nothing — a cycle, a
// size, a count — where zero already selects the default.
func count[T ~int | ~int64](key string, reads kinds, at func(*rec) *T) field {
	f := num(key, 0, reads, at)
	f.decode = func(d *decoder, r *rec) { *at(r) = T(d.count(0)) }
	return f
}

// flt declares a float key held at *at(r), def when absent.
func flt(key string, def float64, reads kinds, at func(*rec) *float64) field {
	return field{key: key, reads: reads,
		decode: func(d *decoder, r *rec) { *at(r) = d.float(def) },
		canon:  func(b []byte, r *rec) []byte { return appendFloat(b, *at(r)) }}
}

// explained lists a scalar row's decoded default under -explain,
// rendered like its canonical value.
func explained(f field) field {
	f.explain = func(sc *Scenario) string { return string(f.canon(nil, &rec{sc: sc})) }
	return f
}

func appendFloat(b []byte, f float64) []byte { return strconv.AppendFloat(b, f, 'g', -1, 64) }

// quotedList renders a list default as a TOML string array ("" when
// empty: nothing was defaulted).
func quotedList[T any](vals []T, name func(T) string) string {
	if len(vals) == 0 {
		return ""
	}
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = strconv.Quote(name(v))
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// telemetry returns the scenario's [telemetry] table, creating it: its
// rows only decode when the table is present.
func (r *rec) telemetry() *Telemetry {
	if r.sc.Telemetry == nil {
		r.sc.Telemetry = &Telemetry{}
	}
	return r.sc.Telemetry
}

// addWindow appends a fault window of the given kind and points r at it.
func (r *rec) addWindow(kind noc.FaultKind) {
	r.sc.FaultWindows = append(r.sc.FaultWindows, noc.FaultWindow{Kind: kind})
	r.win = &r.sc.FaultWindows[len(r.sc.FaultWindows)-1]
}

// eachWindow visits the router-stall windows, or the link windows.
func (r *rec) eachWindow(router bool, visit func()) {
	for i := range r.sc.FaultWindows {
		if r.win = &r.sc.FaultWindows[i]; (r.win.Kind == noc.FaultRouterStall) == router {
			visit()
		}
	}
}

// readBy reports whether the cell in r reads the key.
func (f *field) readBy(r *rec) bool {
	return f.reads&r.kind != 0 && (f.reads&kHotspot == 0 || r.p.Pattern == "hotspot")
}

// table is one level of the key schema, built from the field table: a
// plain table ("", "workload"), or an array of tables' element
// ("flows[]"), whose row appends the element.
type table struct {
	name string          // the key naming it in its parent
	keys map[string]bool // every key it accepts, both spellings
	rows []*field        // the rows whose values sit directly in it
	subs []*table        // nested tables and arrays, in table order
	elem *field          // the array row, for an element table
}

// schema is the top-level table.
var schema = func() *table {
	tables := map[string]*table{"": {keys: map[string]bool{}}}
	var get func(path string) *table
	get = func(path string) *table {
		if t, ok := tables[path]; ok {
			return t
		}
		parent, name := splitKey(path)
		t := &table{name: strings.TrimSuffix(name, "[]"), keys: map[string]bool{}}
		tables[path] = t
		p := get(parent)
		p.keys[t.name] = true
		p.subs = append(p.subs, t)
		return t
	}
	for i := range fields {
		f := &fields[i]
		if strings.HasSuffix(f.key, "[]") {
			get(f.key).elem = f
			continue
		}
		parent, name := splitKey(f.key)
		t := get(parent)
		t.keys[name] = true
		if f.plural != "" {
			t.keys[f.plural] = true
		}
		t.rows = append(t.rows, f)
	}
	return tables[""]
}()

// splitKey splits a row key into its table path and leaf name.
func splitKey(key string) (parent, name string) {
	if i := strings.LastIndexByte(key, '.'); i >= 0 {
		return key[:i], key[i+1:]
	}
	return "", key
}

// axisAlias maps each singular/plural axis spelling, by dotted path, to
// its counterpart: a layer setting either spelling retires the other, so
// a profile's `rate = 0.05` overrides a base file's `rates = [...]`
// instead of colliding with it in the decoder.
var axisAlias = func() map[string]string {
	m := map[string]string{}
	for _, f := range fields {
		if f.plural != "" {
			parent, _ := splitKey(f.key)
			p := joinPath(parent, f.plural)
			m[f.key], m[p] = p, f.key
		}
	}
	return m
}()

// fromRaw decodes a merged raw tree by walking the field table.
func fromRaw(raw map[string]any, res *Resolution) (*Scenario, error) {
	sc := &Scenario{}
	if err := schema.decode(raw, res, "", &rec{sc: sc}); err != nil {
		return nil, err
	}
	return sc, nil
}

// decode checks raw against the table's key set, decodes its rows, then
// descends into the nested tables and arrays raw holds. path is the
// table's resolved path ("flows[2]"), for error locations.
func (t *table) decode(raw map[string]any, res *Resolution, path string, r *rec) error {
	d := decoder{raw: raw, res: res, prefix: path}
	for k := range raw {
		if !t.keys[k] {
			d.key, d.at = k, k
			d.fail("%w %q", ErrUnknownKey, k)
			return d.err
		}
	}
	for _, f := range t.rows {
		_, d.key = splitKey(f.key)
		d.plural, d.at = f.plural, d.key
		f.decode(&d, r)
	}
	if d.err != nil {
		return d.err
	}
	for _, s := range t.subs {
		v, ok := raw[s.name]
		if !ok {
			continue
		}
		spath := joinPath(path, s.name)
		if s.elem == nil {
			m, ok := v.(map[string]any)
			if !ok {
				return perr(res, spath, "%s must be a table/object", spath)
			}
			if err := s.decode(m, res, spath, r); err != nil {
				return err
			}
			continue
		}
		list, ok := v.([]any)
		if !ok {
			return perr(res, spath, "%s must be a list of tables ([[%s]])", spath, spath)
		}
		for i, el := range list {
			epath := fmt.Sprintf("%s[%d]", spath, i)
			m, ok := el.(map[string]any)
			if !ok {
				return perr(res, epath, "%s must be a table/object", epath)
			}
			s.elem.decode(nil, r)
			if err := s.decode(m, res, epath, r); err != nil {
				return err
			}
		}
	}
	return nil
}

// canonFormat versions the canonical cell encoding itself; bumping it
// retires every existing key.
const canonFormat = "tanoq-cell/v2"

// appendCanon appends the canonical bytes of the cell in r: the format,
// network.ModelVersion and the cell's kind, then a `key=value` line for
// every row the cell reads, in table order. Each array element the cell
// reads opens with a line holding the array's key.
func appendCanon(b []byte, r *rec) []byte {
	b = append(b, canonFormat+"\nmodel="+network.ModelVersion+"\nkind="...)
	b = append(b, kindNames[r.kind]...)
	return schema.appendCanon(append(b, '\n'), r)
}

func (t *table) appendCanon(b []byte, r *rec) []byte {
	for _, f := range t.rows {
		if f.readBy(r) {
			b = append(append(b, f.key...), '=')
			b = append(f.canon(b, r), '\n')
		}
	}
	for _, s := range t.subs {
		switch {
		case s.elem == nil:
			b = s.appendCanon(b, r)
		case s.elem.readBy(r):
			s.elem.each(r, func() {
				b = s.appendCanon(append(append(b, s.elem.key...), '\n'), r)
			})
		}
	}
	return b
}
