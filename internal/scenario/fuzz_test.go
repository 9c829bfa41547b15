package scenario

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// FuzzScenarioDecode drives arbitrary bytes through both scenario
// decoders — the hand-rolled TOML subset and the JSON path — hunting
// panics, hangs and validation escapes in the parser/decoder/validator
// stack. The seed corpus is every shipped example scenario plus a set of
// shapes covering each decoder feature (tables, array-of-tables, the
// [workload] and [burst] tables, flows lists, escapes, comments).
func FuzzScenarioDecode(f *testing.F) {
	seeds := []string{
		`{"rates":[0.05],"topologies":["mesh_x1"]}`,
		`{"flows":[{"node":1,"rate":0.2,"dest":"hotspot"}],"qos":["all"]}`,
		"rate = 0.05\ntopology = \"all\"\n",
		"rates = [0.01, 0.05]\n[burst]\nmean_on = 50\nmean_off = 150\n",
		"pattern = \"hotspot\"\nhotspot_weights = [1, 0, 2.5]\n",
		"[workload]\nmode = \"closed\"\noutstanding = [2, 8]\nthink_time = 50\n",
		"[workload]\ntrace = \"no/such/file.trace\"\n",
		"[[flows]]\nnode = 1\nrate = 0.2\n[[flows]]\nnode = 2\nrate = 0.1\ndest = 0\n",
		"name = \"esc \\\"q\\\" # not a comment\" # comment\nrate = 1_000e-4\n",
		"seed = [1, 2, 3]\nqos = [\"pvc\", \"no-qos\"]\nmeasure = 5000\n",
		// The [faults] table and its dotted array-of-tables windows — a
		// healthy mix plus malformed schedules the validator must reject
		// cleanly (zero-length windows, unbounded transients, out-of-range
		// ports, bad dotted headers, recovery knobs on closed loops).
		"rate = 0.05\n[faults]\nretry_timeouts = [0, 400]\nmax_retries = 6\nwatchdog_cycles = 50_000\n" +
			"[[faults.link]]\nport = 3\nfrom = 1000\nuntil = 2000\n" +
			"[[faults.link]]\nport = 4\nfrom = 2500\npermanent = true\n" +
			"[[faults.router]]\nnode = 2\nfrom = 3000\nuntil = 3500\n",
		"rate = 0.05\n[[faults.link]]\nport = 1\nfrom = 20\nuntil = 20\n",
		"rate = 0.05\n[[faults.link]]\nport = 99\nfrom = 10\n",
		"rate = 0.05\n[[faults.router]]\nnode = -1\nfrom = 10\nuntil = 5\n",
		"[[faults..link]]\nport = 1\n",
		"[faults]\nlink = 3\n",
		"[workload]\nmode = \"closed\"\n[faults]\nretry_timeout = 500\n",
		`{"faults":{"retry_timeout":400,"link":[{"port":3,"from":10,"until":20}]},"rates":[0.05]}`,
		// The [run] table: durable-execution knobs — valid shapes plus the
		// nonsense the decoder must reject (zero/negative deadlines,
		// negative retries or backoff, non-table values, unknown keys).
		"rate = 0.05\n[run]\ndeadline_ms = 60_000\nretries = 2\nbackoff_ms = 250\ncache = true\n",
		"rate = 0.05\n[run]\nretries = 0\ncache = false\n",
		"rate = 0.05\n[run]\ndeadline_ms = 0\n",
		"rate = 0.05\n[run]\ndeadline_ms = -5\n",
		"rate = 0.05\n[run]\nretries = -1\n",
		"rate = 0.05\n[run]\nbackoff_ms = -10\n",
		"rate = 0.05\n[run]\nwall_clock = 9\n",
		"rate = 0.05\nrun = 3\n",
		`{"rates":[0.05],"run":{"deadline_ms":1000,"retries":1,"cache":true}}`,
		// Layered-composition surface: include lists (rejected by the blob
		// path — only file-backed scenarios can include), [profiles.*]
		// patch tables in valid and malformed shapes, dotted table headers,
		// and singular/plural alias collisions a profile would retire.
		"include = [\"base.toml\"]\nrate = 0.05\n",
		"include = \"base.toml\"\n",
		"include = [3]\n",
		"rate = 0.05\n[profiles.quick]\nwarmup = 200\nmeasure = 2000\n",
		"rates = [0.01, 0.05]\n[profiles.one]\nrate = 0.03\n[profiles.two]\nrates = [0.09]\n",
		"rate = 0.05\n[profiles.bad]\nbogus = 1\n",
		"rate = 0.05\n[profiles.durable.run]\ndeadline_ms = 1000\n",
		"rate = 0.05\nprofiles = 3\n",
		"rate = 0.05\n[profiles]\nquick = 1\n",
		"rate = 0.05\n[profiles.a.b.c.d]\nx = 1\n",
		"[profiles.quick]\nwarmup = 1\n[profiles.quick]\nwarmup = 2\n",
		`{"rates":[0.05],"profiles":{"quick":{"warmup":200}}}`,
		`{"include":["base.toml"],"rates":[0.05]}`,
		// The [telemetry] table: probe interval, series selection and
		// top-K — valid shapes plus malformed intervals, unknown series
		// and non-table values the validator must reject cleanly.
		"rate = 0.05\n[telemetry]\ninterval = 500\nseries = [\"flits\", \"heatmap\"]\ntop_flows = 4\n",
		"rate = 0.05\n[telemetry]\ninterval = 1\n",
		"rate = 0.05\n[telemetry]\ninterval = 0\n",
		"rate = 0.05\n[telemetry]\ninterval = -250\n",
		"rate = 0.05\n[telemetry]\nseries = [\"flits\"]\n",
		"rate = 0.05\n[telemetry]\ninterval = 500\nseries = [\"latency\"]\n",
		"rate = 0.05\n[telemetry]\ninterval = 500\nseries = 3\n",
		"rate = 0.05\n[telemetry]\ninterval = 500\ntop_flows = -1\n",
		"rate = 0.05\n[telemetry]\ninterval = 500\nheat = true\n",
		"rate = 0.05\ntelemetry = 3\n",
		`{"rates":[0.05],"telemetry":{"interval":500,"series":["events"],"top_flows":8}}`,
	}
	// Every shipped example file is a seed: the fuzzer starts from the
	// real surface users feed the decoder.
	for _, glob := range []string{"../../examples/sweep/*", "../../examples/paper/*"} {
		paths, _ := filepath.Glob(glob)
		for _, p := range paths {
			if blob, err := os.ReadFile(p); err == nil {
				seeds = append(seeds, string(blob))
			}
		}
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data string) {
		for _, ext := range []string{".json", ".toml"} {
			sc, err := Parse([]byte(data), ext)
			if err != nil {
				continue
			}
			if sc == nil {
				t.Fatalf("%s: Parse returned nil scenario without error", ext)
			}
			// A scenario that parsed and validated must expand, unless it
			// names trace files (Grid reads those from disk; missing
			// files are an expected, clean error).
			if len(sc.Traces) > 0 {
				continue
			}
			if _, err := sc.Grid(); err != nil {
				t.Fatalf("%s: validated scenario failed to expand: %v\ninput: %q", ext, err, data)
			}
		}
	})
}

// FuzzSetGrammar drives `-set` expressions through SetLayer and, spelled
// as TANOQ_SET_* variables, through EnvLayer, over the open and flows
// bases of TestCacheKeySound, whose perturbation generator seeds it. Both
// routes must agree — the same scenario or both an error — and a scenario
// that resolves must expand and key. Values holding a number above 4096
// or a list over 64 long are skipped: they only grow the grid, which
// FuzzScenarioDecode covers.
func FuzzSetGrammar(f *testing.F) {
	vals := setValues()
	for i := range fields {
		for _, expr := range perturbations(&fields[i], vals) {
			f.Add(expr)
		}
	}
	for _, expr := range []string{"=", "rate", "rate=", " rate = 0.1", "RATE=0.1", "a..b=1", "flows[x].rate=1",
		"flows[0]=1", "flows[0].rate.x=1", "faults.link[0].until=[300]", "workload__mode=closed"} {
		f.Add(expr)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		key, val, ok := strings.Cut(expr, "=")
		if !modestValue(parseSetValue(val)) {
			t.Skip()
		}
		name := strings.ReplaceAll(strings.ToUpper(key), ".", "__")
		sameEnv := ok && key == strings.TrimSpace(key) &&
			strings.ReplaceAll(strings.ToLower(name), "__", ".") == key
		for _, b := range soundBases[:2] {
			base := BlobLayer(b.name, []byte(b.toml), ".toml")
			sc, _, err := Resolve(base, SetLayer(expr))
			if sameEnv {
				esc, _, eerr := Resolve(base, EnvLayer([]string{envPrefix + name + "=" + val}))
				if (err == nil) != (eerr == nil) || err == nil && !reflect.DeepEqual(sc, esc) {
					t.Fatalf("%s base: -set %q and %s%s disagree: %v / %v", b.name, expr, envPrefix, name, err, eerr)
				}
			}
			if err != nil || len(sc.Traces) > 0 {
				continue // Grid would read the named trace files
			}
			g, err := sc.Grid()
			if err != nil {
				t.Fatalf("%s base, -set %q: validated scenario failed to expand: %v", b.name, expr, err)
			}
			if _, err := g.Keys(); err != nil {
				t.Fatalf("%s base, -set %q: %v", b.name, expr, err)
			}
		}
	})
}

// modestValue reports whether a parsed -set value keeps the grid small.
func modestValue(v any) bool {
	switch t := v.(type) {
	case float64:
		return math.Abs(t) <= 4096
	case []any:
		for _, el := range t {
			if !modestValue(el) {
				return false
			}
		}
		return len(t) <= 64
	}
	return true
}

// FuzzPayloadDecode drives arbitrary bytes through the cache payload
// decoder. Nothing may panic; an accepted input re-encodes to its own
// bytes, and encoding/json, unknown fields disallowed, decodes it to the
// same row. The input also fills a row's fields with its bytes, eight to
// a field, and every such row json.Marshal can encode must be accepted
// as json.Marshal wrote it, so no entry a json.Marshal writer stored is a
// false miss. The seeds are testdata/payload.golden, every truncation of
// it, a zero row, and the golden with its 3.5e-7 respelled in exponent
// and sign forms.
func FuzzPayloadDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/payload.golden")
	if err != nil {
		f.Fatal(err)
	}
	for n := 0; n <= len(golden); n++ {
		f.Add(golden[:n])
	}
	zero, err := json.Marshal(payload{})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(zero)
	for _, v := range []string{"3.5e-7", "3.5e-07", "1e+21", "1e21", "-0", "-0.0", "+1", "1E-7"} {
		f.Add(bytes.Replace(golden, []byte("3.5e-7"), []byte(v), 1))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if row, ok := payloadCodec.decode(data); ok {
			again, err := payloadCodec.encode(nil, &row)
			if err != nil || !bytes.Equal(again, data) {
				t.Fatalf("accepted %q re-encodes to %q (%v)", data, again, err)
			}
			dec := json.NewDecoder(bytes.NewReader(data))
			dec.DisallowUnknownFields()
			var viaJSON payload
			if err := dec.Decode(&viaJSON); err != nil || viaJSON != row {
				t.Fatalf("accepted %q as %+v; encoding/json reads %+v (%v)", data, row, viaJSON, err)
			}
		}

		bits := make([]byte, 8*len(payloadCodec))
		copy(bits, data)
		var row payload
		for i, f := range payloadCodec {
			u := binary.LittleEndian.Uint64(bits[8*i:])
			if f.num != nil {
				*f.num(&row) = int64(u)
			} else {
				*f.flt(&row) = math.Float64frombits(u)
			}
		}
		blob, err := json.Marshal(row)
		if err != nil {
			return // a NaN or infinite field, which no entry holds
		}
		got, ok := payloadCodec.decode(blob)
		if again, _ := payloadCodec.encode(nil, &got); !ok || !bytes.Equal(again, blob) {
			t.Fatalf("json.Marshal wrote %q, which decodes as %+v, %v", blob, got, ok)
		}
	})
}
