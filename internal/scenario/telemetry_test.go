package scenario

import (
	"encoding/json"
	"reflect"
	"testing"

	"tanoq/internal/sim"
)

// telemetryBase is a small two-seed grid.
const telemetryBase = `
pattern = "uniform"
topology = "mesh_x1"
qos = ["pvc"]
rates = [0.03]
seeds = [42, 43]
warmup = 400
measure = 1600
`

// TestTelemetryTableDecoding pins the [telemetry] scenario surface:
// interval/series/top_flows decode, and nonsense — non-positive
// intervals, unknown series, negative top-K, unknown keys, non-table
// values — is rejected at parse time.
func TestTelemetryTableDecoding(t *testing.T) {
	sc, err := Parse([]byte(telemetryBase+"[telemetry]\ninterval = 500\nseries = [\"flits\", \"heatmap\"]\ntop_flows = 4\n"), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Telemetry == nil {
		t.Fatal("telemetry table dropped")
	}
	if sc.Telemetry.Interval != 500 || sc.Telemetry.TopFlows != 4 ||
		!reflect.DeepEqual(sc.Telemetry.Series, []string{"flits", "heatmap"}) {
		t.Errorf("telemetry decoded wrong: %+v", sc.Telemetry)
	}
	sc, err = Parse([]byte(telemetryBase), ".toml")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Telemetry != nil {
		t.Errorf("absent telemetry table decoded non-nil: %+v", sc.Telemetry)
	}
	for name, src := range map[string]string{
		"zero interval":     telemetryBase + "[telemetry]\ninterval = 0\n",
		"negative interval": telemetryBase + "[telemetry]\ninterval = -5\n",
		"missing interval":  telemetryBase + "[telemetry]\nseries = [\"flits\"]\n",
		"unknown series":    telemetryBase + "[telemetry]\ninterval = 500\nseries = [\"latency\"]\n",
		"negative top":      telemetryBase + "[telemetry]\ninterval = 500\ntop_flows = -1\n",
		"unknown key":       telemetryBase + "[telemetry]\ninterval = 500\nheat = true\n",
		"not a table":       telemetryBase + "telemetry = 3\n",
	} {
		if _, err := Parse([]byte(src), ".toml"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// stripTimelines clears wall-clock and the timeline pointers so probed
// and unprobed runs compare bit-for-bit on the simulation columns.
func stripTimelines(rs []Result) []Result {
	out := zeroWall(rs)
	for i := range out {
		out[i].Timeline = nil
	}
	return out
}

// TestProbedGridEquivalentToUnprobed pins display-only telemetry at the
// scenario layer: the same grid with and without a [telemetry] table
// produces bit-identical result rows — which is exactly why the
// telemetry knobs stay out of the cache key.
func TestProbedGridEquivalentToUnprobed(t *testing.T) {
	plain := runGrid(t, gridOf(t, telemetryBase), RunOpts{Workers: 1})
	probed := runGrid(t, gridOf(t, telemetryBase+"[telemetry]\ninterval = 400\n"), RunOpts{Workers: 1})
	for i := range probed {
		if probed[i].Timeline == nil || probed[i].Timeline.Samples() == 0 {
			t.Fatalf("cell %d: probed run carries no timeline", i)
		}
	}
	if !reflect.DeepEqual(stripTimelines(plain), stripTimelines(probed)) {
		t.Errorf("telemetry changed result rows:\nplain:  %+v\nprobed: %+v", stripTimelines(plain), stripTimelines(probed))
	}
}

// TestTelemetryCacheKeysUnchanged pins the key exclusion directly:
// adding or changing a [telemetry] table never moves a cache key.
func TestTelemetryCacheKeysUnchanged(t *testing.T) {
	base := keysOf(t, telemetryBase)
	for name, src := range map[string]string{
		"probed":         telemetryBase + "[telemetry]\ninterval = 400\n",
		"other interval": telemetryBase + "[telemetry]\ninterval = 900\nseries = [\"flits\"]\n",
		"full selection": telemetryBase + "[telemetry]\ninterval = 250\ntop_flows = 16\n",
	} {
		if got := keysOf(t, src); !reflect.DeepEqual(got, base) {
			t.Errorf("%s: telemetry table moved cache keys", name)
		}
	}
}

// TestTimelineDeterministicAcrossWorkers is the sweep-level acceptance
// check: a probed grid's timelines (full JSON, marks and all) are
// byte-identical whether the grid ran on one worker or four, with idle
// skipping on or off.
func TestTimelineDeterministicAcrossWorkers(t *testing.T) {
	src := telemetryBase + "[telemetry]\ninterval = 400\ntop_flows = 4\n"
	collect := func(g *Grid, opts RunOpts) [][]byte {
		results := runGrid(t, g, opts)
		blobs := make([][]byte, len(results))
		for i, r := range results {
			if r.Error != "" {
				t.Fatalf("cell %d failed: %s", i, r.Error)
			}
			blob, err := json.Marshal(r.Timeline)
			if err != nil {
				t.Fatal(err)
			}
			blobs[i] = blob
		}
		return blobs
	}
	base := collect(gridOf(t, src), RunOpts{Workers: 1})
	for name, v := range map[string]struct {
		g    *Grid
		opts RunOpts
	}{
		"workers=4":        {gridOf(t, src), RunOpts{Workers: 4}},
		"no idle skip":     {skipOff(gridOf(t, src)), RunOpts{Workers: 1}},
		"skipless workers": {skipOff(gridOf(t, src)), RunOpts{Workers: 2}},
	} {
		got := collect(v.g, v.opts)
		for i := range base {
			if string(got[i]) != string(base[i]) {
				t.Errorf("%s: cell %d timeline diverged:\nbase: %s\ngot:  %s", name, i, base[i], got[i])
			}
		}
	}
}

// TestTelemetryHorizonFollowsSchedule pins the preallocation contract
// end-to-end: the runner arms samplers with the scenario's
// warmup+measure horizon, so an in-schedule run drops nothing.
func TestTelemetryHorizonFollowsSchedule(t *testing.T) {
	results := runGrid(t, gridOf(t, telemetryBase+"[telemetry]\ninterval = 100\n"), RunOpts{Workers: 1})
	for i, r := range results {
		tl := r.Timeline
		if tl.DroppedSamples != 0 || tl.DroppedMarks != 0 {
			t.Errorf("cell %d dropped %d samples / %d marks inside the declared schedule", i, tl.DroppedSamples, tl.DroppedMarks)
		}
		// 2000 cycles at interval 100: ticks at 100..1900. The final
		// cycle is not stepped (the run ends with the clock on it, the
		// same convention frame flushes follow), so one fewer than
		// cycles/interval.
		if want := sim.Cycle(2000)/tl.Interval - 1; sim.Cycle(tl.Samples()) != want {
			t.Errorf("cell %d collected %d samples, want %d", i, tl.Samples(), want)
		}
	}
}
