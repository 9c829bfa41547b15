package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

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

// TestJSONReportIsMarshalIndent pins the report a RowWriter assembles
// element by element to what json.MarshalIndent makes of the whole
// document, with no rows, one, and several — a failed row whose error
// needs HTML escaping among them.
func TestJSONReportIsMarshalIndent(t *testing.T) {
	rows := runGrid(t, gridOf(t, durableToml), RunOpts{Workers: 1})
	rows = append(rows, Result{Point: rows[0].Point, Error: `cell <panicked> & "died"`, Attempts: 2})
	for _, rs := range [][]Result{nil, rows[:1], rows} {
		doc := struct {
			Scenario string       `json:"scenario"`
			Results  []resultJSON `json:"results"`
		}{Scenario: `a "quoted" <name>`, Results: []resultJSON{}}
		for i := range rs {
			doc.Results = append(doc.Results, jsonRowOf(&rs[i]))
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
}

// TestVerifySampleIsEvenlySpacedHits pins which hits -cache-verify
// re-runs: over a grid whose hits are scattered among misses, the k-th
// sampled cell is hit number k·step in grid order (step = hits/sample),
// as it was when the executor listed every hit's index. Every served
// entry is corrupted, so each sampled cell reports its divergence — by
// index — on VerifyBad.
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
	for _, sample := range []int{5, 1000} {
		st, err := store.Open(t.TempDir())
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
			path := filepath.Join(st.Dir(), "v1", key[:2], key+".json")
			if i%3 == 0 || i%7 == 0 {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
				continue
			}
			hitIdx = append(hitIdx, i)
			row, ok := store.Load[cachedRow](st, key)
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
			step := len(hitIdx) / sample
			want = nil
			for k := 0; k < sample; k++ {
				want = append(want, hitIdx[k*step])
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
				ref = append(ref, idx[k*(len(idx)/want)])
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
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := gridOf(t, toml)
	keys, err := g.Keys()
	if err != nil {
		t.Fatal(err)
	}
	const blocked = 7
	if err := os.WriteFile(filepath.Join(st.Dir(), "v1", keys[blocked][:2]), nil, 0o644); err != nil {
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
