package workload

import (
	"os"
	"reflect"
	"sort"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/traffic"
)

// FuzzTraceDecode holds the trace decoder to its contract over arbitrary
// file bytes: it never panics (a trace file is untrusted input — `noctool
// trace info/replay` and any scenario's workload.trace reach it), and a
// trace it accepts re-encodes to bytes that decode to the same trace.
// DecodeReplay, which walks the same bytes without a record slice, is
// held to DecodeTrace: it rejects what DecodeTrace rejects with the same
// error text, and on what DecodeTrace accepts it builds exactly the
// workload of a naive (flow, src) grouping of the decoded records. Seeds
// are the committed example capture and the version-1 and version-2
// encodings of sampleTrace. `go test -fuzz FuzzTraceDecode
// ./internal/workload` runs it open-ended.
func FuzzTraceDecode(f *testing.F) {
	example, err := os.ReadFile("../../examples/traces/uniform-mesh_x1.trace")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(example)
	f.Add(sampleTrace().Encode())
	faulted := sampleTrace()
	faulted.Header.Faults = []noc.FaultWindow{{Kind: noc.FaultLinkTransient, Port: 3, From: 100, Until: 900}}
	faulted.Header.RetryTimeout, faulted.Header.MaxRetries = 400, 6
	faulted.Header.Engine = "fuzz"
	f.Add(faulted.Encode())

	f.Fuzz(func(t *testing.T, blob []byte) {
		tr, err := DecodeTrace(blob)
		hdr, w, rerr := DecodeReplay(blob, "fuzz")
		if err != nil {
			if rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("DecodeTrace rejects with %q, DecodeReplay with %v", err, rerr)
			}
			return
		}
		if rerr != nil {
			t.Fatalf("DecodeTrace accepts, DecodeReplay rejects: %v", rerr)
		}
		if !reflect.DeepEqual(hdr, tr.Header) {
			t.Fatalf("DecodeReplay header %+v, DecodeTrace's %+v", hdr, tr.Header)
		}
		if want := naiveReplay("fuzz", tr); !reflect.DeepEqual(w, want) {
			t.Fatalf("DecodeReplay's workload (%d specs) differs from a naive grouping of the decoded records (%d specs)",
				len(w.Specs), len(want.Specs))
		}
		again, err := DecodeTrace(tr.Encode())
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		// Encode writes version 1, which has no engine field, whenever
		// the header carries no fault state.
		want := *tr
		if !want.Header.faulted() {
			want.Header.Engine = ""
		}
		if !reflect.DeepEqual(again, &want) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", again.Header, want.Header)
		}
	})
}

// naiveReplay is the replay builder's oracle: it groups the decoded
// records by (flow, source node) with append, in ascending pair order.
func naiveReplay(name string, tr *Trace) traffic.Workload {
	type key struct {
		flow noc.FlowID
		src  noc.NodeID
	}
	streams := map[key]*traffic.Replay{}
	var keys []key
	for _, r := range tr.Records {
		k := key{r.Flow, r.Src}
		if streams[k] == nil {
			streams[k] = &traffic.Replay{}
			keys = append(keys, k)
		}
		streams[k].Events = append(streams[k].Events, traffic.ReplayEvent{At: r.At, Dst: r.Dst, Class: r.Class})
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].flow != keys[b].flow {
			return keys[a].flow < keys[b].flow
		}
		return keys[a].src < keys[b].src
	})
	w := traffic.Workload{Name: name, Nodes: tr.Header.Nodes, Specs: []traffic.Spec{}}
	for _, k := range keys {
		w.Specs = append(w.Specs, traffic.Spec{Flow: k.flow, Node: k.src, Replay: streams[k]})
	}
	return w
}
