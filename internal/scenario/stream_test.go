package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"tanoq/internal/store"
)

// render is the table a NewTableWriter prints for rows handed over in
// one piece, as `noctool sweep` prints a grid of them.
func render(name string, rows []Result) string {
	b, _ := NewTableWriter(nil, name, len(rows)).all(rows)
	return string(b)
}

// TestStreamChunksRenderAsOne pins the streamed outputs against the
// one-piece ones over a grid of several chunks with a ragged tail and a
// failed row: Stream hands the sink every row once, in grid order, in
// streamChunk pieces, and the CSV, table and JSON report a RowWriter
// writes a chunk at a time are byte-identical to CSV, the table and
// JSONReport over the collected rows.
func TestStreamChunksRenderAsOne(t *testing.T) {
	seeds := make([]string, 45)
	for i := range seeds {
		seeds[i] = fmt.Sprint(1 + i)
	}
	g := gridOf(t, `
name = "chunks"
patterns = ["uniform", "transpose"]
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.02, 0.04, 0.06]
seeds = [`+strings.Join(seeds, ", ")+`]
warmup = 50
measure = 150
`)
	n := g.Size()
	if n <= 2*streamChunk || n%streamChunk == 0 {
		t.Fatalf("%d cells: want more than two chunks and a ragged tail", n)
	}
	// A negative retry timeout is refused by network.New: one cell of the
	// last chunk fails on every attempt.
	const bad = 2*streamChunk + 7
	g.pts[bad].RetryTimeout = -1

	var csv, table, report bytes.Buffer
	writers := []*RowWriter{NewCSVWriter(&csv, "chunks"), NewTableWriter(&table, "chunks", n), NewJSONWriter(&report, "chunks")}
	var firsts []int
	var rows []Result
	rep, err := g.Stream(context.Background(), DurableOpts{}, func(first int, chunk []Result) error {
		firsts = append(firsts, first)
		rows = append(rows, chunk...)
		for _, w := range writers {
			if err := w.Write(chunk); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if want := []int{0, streamChunk, 2 * streamChunk}; !reflect.DeepEqual(firsts, want) {
		t.Errorf("sink saw chunks at %v, want %v", firsts, want)
	}
	if len(rows) != n || rep.Executed != n || rep.Failed != 1 || rep.Results != nil {
		t.Fatalf("%d rows, report %+v: want %d executed, 1 failed, no collected rows", len(rows), rep, n)
	}
	for i, r := range rows {
		if r.Point != g.Points[i] {
			t.Fatalf("row %d is point %+v, want %+v", i, r.Point, g.Points[i])
		}
		if failed := r.Error != ""; failed != (i == bad) {
			t.Errorf("row %d error %q", i, r.Error)
		}
	}
	if !strings.Contains(rows[bad].Error, "negative retry timeout") {
		t.Errorf("failed row says %q", rows[bad].Error)
	}
	wantJSON, err := JSONReport("chunks", rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, got, want string }{
		{"CSV", csv.String(), CSV("chunks", rows)},
		{"table", table.String(), render("chunks", rows)},
		{"JSON report", report.String(), string(wantJSON)},
	} {
		if c.got != c.want {
			t.Errorf("streamed %s differs from the one-piece output", c.name)
		}
	}
}

// jsonRecord is the reference for one record of the -out report: the
// struct-tagged row encoding/json marshals, which the column table's
// JSON writer must reproduce byte for byte.
type jsonRecord struct {
	Workload          string  `json:"workload"`
	Pattern           string  `json:"pattern"`
	Topology          string  `json:"topology"`
	QoS               string  `json:"qos"`
	Seed              uint64  `json:"seed"`
	Rate              float64 `json:"rate"`
	Outstanding       int     `json:"outstanding,omitempty"`
	Think             float64 `json:"think_time,omitempty"`
	RetryTimeout      int64   `json:"retry_timeout,omitempty"`
	MaxRetries        int     `json:"max_retries,omitempty"`
	MeanLatency       float64 `json:"mean_latency_cycles"`
	P99Latency        float64 `json:"p99_latency_cycles"`
	Accepted          float64 `json:"accepted_flits_per_cycle"`
	PreemptionPct     float64 `json:"preemption_pct"`
	Delivered         int64   `json:"delivered_packets"`
	TputMinPct        float64 `json:"tput_min_pct_of_mean"`
	TputMaxPct        float64 `json:"tput_max_pct_of_mean"`
	TputStdDevPct     float64 `json:"tput_stddev_pct_of_mean"`
	Completed         int64   `json:"completed_requests,omitempty"`
	MeanRTT           float64 `json:"mean_rtt_cycles,omitempty"`
	P99RTT            float64 `json:"p99_rtt_cycles,omitempty"`
	DeliveredFraction float64 `json:"delivered_fraction"`
	Retries           int64   `json:"retries,omitempty"`
	Drops             int64   `json:"drops,omitempty"`
	MeanRecovery      float64 `json:"mean_recovery_cycles,omitempty"`
	VictimSlowdown    float64 `json:"victim_slowdown,omitempty"`
	WallMS            float64 `json:"wall_ms,omitempty"`
	CyclesPerSec      float64 `json:"cycles_per_sec,omitempty"`
	Attempts          int     `json:"attempts"`
	Error             string  `json:"error,omitempty"`
}

func jsonRecordOf(r *Result) jsonRecord {
	var cps float64
	if r.Wall > 0 {
		cps = float64(r.End) / r.Wall.Seconds()
	}
	return jsonRecord{
		Workload: r.Workload, Pattern: r.Pattern, Topology: r.Topology.String(), QoS: r.Mode.String(),
		Seed: r.Seed, Rate: r.Rate, Outstanding: r.Outstanding, Think: r.Think,
		RetryTimeout: int64(r.RetryTimeout), MaxRetries: r.MaxRetries,
		MeanLatency: r.MeanLatency, P99Latency: r.P99Latency,
		Accepted: r.Accepted, PreemptionPct: r.PreemptionPct, Delivered: r.Delivered,
		TputMinPct: r.TputMinPct, TputMaxPct: r.TputMaxPct, TputStdDevPct: r.TputStdDevPct,
		Completed: r.Completed, MeanRTT: r.MeanRTT, P99RTT: r.P99RTT,
		DeliveredFraction: r.DeliveredFraction, Retries: r.Retries, Drops: r.Drops,
		MeanRecovery: r.MeanRecovery, VictimSlowdown: r.VictimSlowdown,
		WallMS:       float64(r.Wall) / float64(time.Millisecond),
		CyclesPerSec: cps,
		Attempts:     r.Attempts, Error: r.Error,
	}
}

// TestJSONReportIsMarshalIndent pins the report a RowWriter assembles
// from the column table to what json.MarshalIndent makes of the whole
// document over the reference records, with no rows, one, and several:
// among them a failed row whose error needs HTML escaping, and floats in
// encoding/json's exponent form, a negative zero in an omitempty column
// and a string that is not valid UTF-8. A NaN or infinite metric fails
// the report as it fails MarshalIndent.
func TestJSONReportIsMarshalIndent(t *testing.T) {
	rows := runGrid(t, gridOf(t, durableToml), RunOpts{Workers: 1})
	rows = append(rows, Result{Point: rows[0].Point, Error: `cell <panicked> & "died"`, Attempts: 2})
	odd := rows[0]
	odd.Pattern = "bad\xffutf8\u2028"
	odd.Rate, odd.MeanLatency, odd.Accepted = 1e-7, 1e21, 123456789e15
	odd.MeanRecovery, odd.VictimSlowdown, odd.P99Latency = 9.999999e-7, -2.5e-300, 1e-6
	odd.Think, odd.TputMinPct = math.Copysign(0, -1), math.Copysign(0, -1)
	rows = append(rows, odd)
	for _, rs := range [][]Result{nil, rows[:1], rows} {
		doc := struct {
			Scenario string       `json:"scenario"`
			Results  []jsonRecord `json:"results"`
		}{Scenario: `a "quoted" <name>`, Results: []jsonRecord{}}
		for i := range rs {
			doc.Results = append(doc.Results, jsonRecordOf(&rs[i]))
		}
		want, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		got, err := JSONReport(doc.Scenario, rs)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want)+"\n" {
			t.Errorf("%d rows: report\n%s\nwant\n%s", len(rs), got, want)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := rows[0]
		bad.TputMaxPct = v
		_, want := json.Marshal(jsonRecordOf(&bad))
		if _, err := JSONReport("bad", []Result{bad}); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v metric: error %v, want %v", v, err, want)
		}
	}
}

// TestVerifySampleIsEvenlySpacedHits pins which hits -cache-verify
// re-runs: over a grid whose hits are scattered among misses, the k-th
// of N sampled cells is hit number ⌊k·hits/N⌋ in grid order, so the
// sample spans the hits — with N between half and all of them, the last
// sampled hit lies in the grid's last tenth. Every served entry is
// corrupted, so each sampled cell reports its divergence — by index — on
// VerifyBad.
func TestVerifySampleIsEvenlySpacedHits(t *testing.T) {
	const toml = `
pattern = "uniform"
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
seeds = [42, 43]
warmup = 50
measure = 150
`
	for _, sample := range []int{5, 50, 1000} {
		stDir := t.TempDir()
		st, err := store.Open(stDir)
		if err != nil {
			t.Fatal(err)
		}
		g := gridOf(t, toml)
		if _, err := g.RunDurable(context.Background(), DurableOpts{Store: st}); err != nil {
			t.Fatal(err)
		}
		keys, err := g.Keys()
		if err != nil {
			t.Fatal(err)
		}
		var hitIdx []int
		for i, key := range keys {
			path := filepath.Join(stDir, "v1", key[:2], key+".json")
			if i%3 == 0 || i%7 == 0 {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				continue
			}
			hitIdx = append(hitIdx, i)
			row, ok := payloadCodec.load(st, key)
			if !ok {
				t.Fatalf("cell %d has no entry", i)
			}
			row.MeanLatency += 1000
			forged, _ := json.Marshal(row)
			if err := st.Put(key, forged); err != nil {
				t.Fatal(err)
			}
		}
		want := hitIdx
		if sample < len(hitIdx) {
			want = nil
			for k := 0; k < sample; k++ {
				want = append(want, hitIdx[k*len(hitIdx)/sample])
			}
		}

		rep, err := gridOf(t, toml).RunDurable(context.Background(), DurableOpts{Store: st, VerifySample: sample})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Hits != len(hitIdx) || rep.Verified != 0 {
			t.Fatalf("sample %d: %d hits, %d verified: want %d hits, every one diverged", sample, rep.Hits, rep.Verified, len(hitIdx))
		}
		var got []int
		for _, bad := range rep.VerifyBad {
			var i int
			if _, err := fmt.Sscanf(bad, "cell %d ", &i); err != nil || !strings.Contains(bad, "diverges from re-execution") {
				t.Fatalf("VerifyBad entry %q", bad)
			}
			got = append(got, i)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sample %d re-ran hits %v, want %v", sample, got, want)
		}
		if 2*sample > len(hitIdx) && len(got) > 0 && got[len(got)-1] < g.Size()*9/10 {
			t.Errorf("sample %d of %d hits ends at cell %d of %d", sample, len(hitIdx), got[len(got)-1], g.Size())
		}
	}

	// The bitset walk against the index list over random hit sets.
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		n := 1 + rng.Intn(300)
		bitset := make([]uint64, (n+63)/64)
		var idx []int
		for i := range n {
			if rng.Intn(4) != 0 {
				bitset[i/64] |= 1 << (i % 64)
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		want := 1 + rng.Intn(len(idx)+5)
		ref := idx
		if want < len(idx) {
			ref = nil
			for k := 0; k < want; k++ {
				ref = append(ref, idx[k*len(idx)/want])
			}
		}
		if got := sampleHits(bitset, len(idx), want); !reflect.DeepEqual(got, ref) {
			t.Fatalf("%d hits of %d cells, sample %d: got %v, want %v", len(idx), n, want, got, ref)
		}
	}
}

// TestStreamStopsOnCheckpointFailure pins what a failed checkpoint does:
// like a cancellation it stops issuing cells, yet every row still
// reaches the sink in grid order — the never-issued misses as skipped
// rows — and Stream returns the checkpoint error with the report. The
// store's shard directory for one cell's key is a file, so that cell's
// row cannot be written back.
func TestStreamStopsOnCheckpointFailure(t *testing.T) {
	const toml = `
pattern = "uniform"
topology = "all"
qos = ["pvc", "no-qos"]
rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]
seeds = [42, 43]
warmup = 50
measure = 150
`
	stDir := t.TempDir()
	st, err := store.Open(stDir)
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, toml)
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	const blocked = 7
	if err := os.WriteFile(filepath.Join(stDir, "v1", keys[blocked][:2]), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	first := slices.IndexFunc(keys, func(k string) bool { return k[:2] == keys[blocked][:2] })

	var rows []Result
	rep, err := g.Stream(context.Background(), DurableOpts{RunOpts: RunOpts{Workers: 1}, Store: st},
		func(_ int, chunk []Result) error {
			rows = append(rows, chunk...)
			return nil
		})
	if err == nil || !strings.Contains(err.Error(), "checkpoint") || rep == nil {
		t.Fatalf("error %v, report %+v: want a checkpoint error with the report", err, rep)
	}
	n := g.Size()
	if len(rows) != n || rep.Executed != first+1 || rep.Skipped != n-first-1 || !rep.Interrupted {
		t.Fatalf("%d rows, report %+v: want %d rows, %d executed, the rest skipped", len(rows), rep, n, first+1)
	}
	for i, r := range rows {
		if skipped := r.Error == skippedError; skipped != (i > first) || r.Point != g.Points[i] {
			t.Errorf("row %d: %+v", i, r)
		}
	}
}
