package workload

import (
	"os"
	"reflect"
	"testing"

	"tanoq/internal/noc"
)

// FuzzTraceDecode holds the trace decoder to its contract over arbitrary
// file bytes: it never panics (a trace file is untrusted input — `noctool
// trace info/replay` and any scenario's workload.trace reach it), a trace
// it accepts re-encodes to bytes that decode to the same trace, and
// building the replay workload from it does not panic either. Seeds are
// the committed example capture and the version-1 and version-2
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
		if err != nil {
			return
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
		_, _ = tr.Workload("fuzz") // must not panic; an error is a valid answer
	})
}
