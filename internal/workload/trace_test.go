package workload

import (
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

func sampleTrace() *Trace {
	return &Trace{
		Header: TraceHeader{
			Nodes: 8, Topology: "mesh_x2", QoS: "pvc", Seed: 99,
			Warmup: 1_000, Measure: 5_000,
			FrameCycles: 10_000, WindowPackets: 8, QuantumFlits: 16, MarginClasses: 32,
		},
		Records: []traffic.TraceRecord{
			{At: 0, Flow: 0, Src: 0, Dst: 7, Class: noc.ClassRequest},
			{At: 0, Flow: 57, Src: 7, Dst: 0, Class: noc.ClassReply},
			{At: 3, Flow: 8, Src: 1, Dst: 2, Class: noc.ClassReply},
			// A large cycle jump exercises multi-byte varint deltas.
			{At: 1_000_000, Flow: 8, Src: 1, Dst: 5, Class: noc.ClassRequest},
			{At: 1_000_000, Flow: 16, Src: 2, Dst: 1, Class: noc.ClassRequest},
		},
	}
}

// TestTraceEncodeDecodeRoundTrip pins the binary format: header and
// records survive an encode/decode cycle bit-for-bit.
func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	want := sampleTrace()
	got, err := DecodeTrace(want.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Errorf("header diverged: %+v vs %+v", got.Header, want.Header)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("decoded %d records, want %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if got.Records[i] != want.Records[i] {
			t.Errorf("record %d diverged: %+v vs %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestTraceV1ByteCompat pins that a trace without fault state still
// encodes as version 1, byte-identical to the original format — old
// traces and new fault-free captures are the same bytes.
func TestTraceV1ByteCompat(t *testing.T) {
	blob := sampleTrace().Encode()
	if blob[4] != traceVersion {
		t.Fatalf("fault-free trace encoded as version %d, want %d", blob[4], traceVersion)
	}
}

// TestTraceV2RoundTrip pins the fault section: a faulted header flips the
// version byte to 2 and survives encode/decode exactly, and the rebuilt
// cell carries the recorded fault configuration.
func TestTraceV2RoundTrip(t *testing.T) {
	want := sampleTrace()
	want.Header.Faults = []noc.FaultWindow{
		{Kind: noc.FaultLinkTransient, Port: 3, From: 100, Until: 900},
		{Kind: noc.FaultLinkPermanent, Port: 9, From: 2_000},
		{Kind: noc.FaultRouterStall, Node: 5, From: 1_500, Until: 1_600},
	}
	want.Header.RetryTimeout = 400
	want.Header.MaxRetries = 6
	want.Header.WatchdogCycles = 50_000
	blob := want.Encode()
	if blob[4] != traceVersionV2 {
		t.Fatalf("faulted trace encoded as version %d, want %d", blob[4], traceVersionV2)
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, want.Header) {
		t.Errorf("header diverged: %+v vs %+v", got.Header, want.Header)
	}
	cfg, _, _, err := got.Cell("v2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cfg.Faults.Windows, want.Header.Faults) ||
		cfg.Faults.RetryTimeout != 400 || cfg.Faults.MaxRetries != 6 || cfg.WatchdogCycles != 50_000 {
		t.Errorf("cell dropped fault config: %+v wd=%d", cfg.Faults, cfg.WatchdogCycles)
	}
}

// TestTraceV2RejectsBadFaults pins that malformed fault sections fail
// decoding instead of installing nonsense windows.
func TestTraceV2RejectsBadFaults(t *testing.T) {
	mk := func(w noc.FaultWindow) []byte {
		tr := sampleTrace()
		tr.Header.Faults = []noc.FaultWindow{w}
		return tr.Encode()
	}
	cases := map[string][]byte{
		"unknown kind":        mk(noc.FaultWindow{Kind: 99, Port: 1, From: 10, Until: 20}),
		"empty window":        mk(noc.FaultWindow{Kind: noc.FaultLinkTransient, Port: 1, From: 20, Until: 20}),
		"unbounded transient": mk(noc.FaultWindow{Kind: noc.FaultLinkTransient, Port: 1, From: 10}),
	}
	for name, blob := range cases {
		_, err := DecodeTrace(blob)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			continue
		}
		if _, _, rerr := DecodeReplay(blob, "x"); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: DecodeReplay error %v, DecodeTrace's %v", name, rerr, err)
		}
	}
}

// catchWatchdog runs fn and returns the watchdog trip it panics with, or
// nil if it runs to completion. Any other panic propagates.
func catchWatchdog(fn func()) (we *network.WatchdogError) {
	defer func() {
		if r := recover(); r != nil {
			e, ok := r.(*network.WatchdogError)
			if !ok {
				panic(r)
			}
			we = e
		}
	}()
	fn()
	return nil
}

// TestWatchdogReproTraceReplays pins the watchdog's headline debugging
// contract end to end: wedge a column with a permanent router stall under
// a Recorder, catch the dump, wrap the stream the recorder captured up to
// the trip in a version-2 trace carrying the same fault schedule,
// round-trip it through the binary encoding, and replay — the rebuilt
// cell must wedge identically, tripping the watchdog at the same cycle.
func TestWatchdogReproTraceReplays(t *testing.T) {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.05)
	qcfg := qos.DefaultConfig(w.TotalFlows())
	cfg := network.Config{
		Kind: topology.MeshX1, QoS: qcfg, Workload: w, Seed: 23,
		Faults: network.FaultConfig{Windows: []noc.FaultWindow{
			{Kind: noc.FaultRouterStall, Node: 3, From: 500}, // never lifts
		}},
		WatchdogCycles: 1_500,
	}
	n := network.MustNew(cfg)
	rec := &Recorder{}
	rec.Attach(n)
	we := catchWatchdog(func() { n.WarmupAndMeasure(0, 10_000) })
	if we == nil {
		t.Fatal("permanent router stall did not trip the watchdog")
	}
	if rec.Len() == 0 {
		t.Fatal("recorder captured nothing before the trip")
	}

	tr := rec.Trace(TraceHeader{
		Nodes: topology.ColumnNodes, Topology: cfg.Kind.String(), QoS: qcfg.Mode.String(),
		Seed: cfg.Seed, Warmup: 0, Measure: 10_000,
		Faults:         cfg.Faults.Windows,
		WatchdogCycles: cfg.WatchdogCycles,
	})
	hdr, rw, err := DecodeReplay(tr.Encode(), "repro")
	if err != nil {
		t.Fatal(err)
	}
	rcfg, warmup, measure, err := hdr.Cell(rw)
	if err != nil {
		t.Fatal(err)
	}
	rn := network.MustNew(rcfg)
	again := catchWatchdog(func() { rn.WarmupAndMeasure(warmup, measure) })
	if again == nil {
		t.Fatal("replayed repro trace did not trip the watchdog")
	}
	if again.Report.At != we.Report.At || again.Report.LastProgress != we.Report.LastProgress {
		t.Errorf("replayed trip diverged: cycle %d/progress %d, recorded %d/%d",
			again.Report.At, again.Report.LastProgress, we.Report.At, we.Report.LastProgress)
	}
}

// header returns a version-1 trace prefix up to the topology string:
// magic, version, eight nodes, and a zero seed, schedule and QoS
// overrides.
func header() []byte {
	return []byte("TQTR\x01\x08\x00\x00\x00\x00\x00\x00\x00")
}

// TestTraceDecodeRejectsGarbage pins the decoder's error surface: bad
// magic, bad version, truncations at several depths, invalid record
// fields and trailing bytes must all fail cleanly, never panic.
func TestTraceDecodeRejectsGarbage(t *testing.T) {
	valid := sampleTrace().Encode()
	v2 := header()
	v2[4] = traceVersionV2
	cases := map[string][]byte{
		"empty":         {},
		"bad magic":     []byte("NOPE\x01"),
		"bad version":   []byte("TQTR\x63"),
		"header only":   valid[:6],
		"mid header":    valid[:12],
		"mid records":   valid[:len(valid)-3],
		"trailing junk": append(append([]byte{}, valid...), 0x01),
		// Lengths the bytes left cannot hold: a record count that would
		// size a 2^40-record allocation (21 bytes), and a topology-string
		// length whose end offset overflows int (22 bytes).
		"record count 2^40":      binary.AppendUvarint(append(header(), 0, 0), 1<<40),
		"topology length 2^63-3": binary.AppendUvarint(header(), 1<<63-3),
		// A header integer past MaxInt would decode negative; a negative
		// retry timeout alone also makes Encode drop the fault section.
		"retry timeout 2^63": append(binary.AppendUvarint(append(v2, 0, 0), 1<<63), 0, 0, 0, 0, 0),
	}
	for name, blob := range cases {
		_, err := DecodeTrace(blob)
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			continue
		}
		if _, _, rerr := DecodeReplay(blob, "x"); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: DecodeReplay error %v, DecodeTrace's %v", name, rerr, err)
		}
	}

	// Field-level validation: a flow outside the population, nodes
	// outside the column.
	for name, rec := range map[string]traffic.TraceRecord{
		"bad flow": {At: 1, Flow: 64, Src: 0, Dst: 1, Class: noc.ClassRequest},
		"bad src":  {At: 1, Flow: 0, Src: 9, Dst: 1, Class: noc.ClassRequest},
		"bad dst":  {At: 1, Flow: 0, Src: 0, Dst: 8, Class: noc.ClassRequest},
	} {
		tr := sampleTrace()
		tr.Records = []traffic.TraceRecord{rec}
		_, err := DecodeTrace(tr.Encode())
		if err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
			continue
		}
		if _, _, rerr := DecodeReplay(tr.Encode(), "x"); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("%s: DecodeReplay error %v, DecodeTrace's %v", name, rerr, err)
		}
	}
}

// TestTraceWorkloadGrouping pins DecodeReplay's workload: one spec per
// flow in ascending flow order, each carrying its record subsequence in
// order in a stream of exactly its size, and one flow injected from two
// nodes split into two streams.
func TestTraceWorkloadGrouping(t *testing.T) {
	tr := sampleTrace()
	_, w, err := DecodeReplay(tr.Encode(), "replay")
	if err != nil {
		t.Fatal(err)
	}
	if len(w.Specs) != 4 {
		t.Fatalf("%d specs, want 4 (flows 0, 8, 16, 57)", len(w.Specs))
	}
	wantFlows := []noc.FlowID{0, 8, 16, 57}
	for i, s := range w.Specs {
		if s.Flow != wantFlows[i] {
			t.Errorf("spec %d is flow %d, want %d", i, s.Flow, wantFlows[i])
		}
		if s.Replay == nil || len(s.Replay.Events) == 0 {
			t.Fatalf("spec %d has no replay stream", i)
		}
		if err := s.Validate(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
		// Each stream is carved to its exact size out of one slice.
		if n := len(s.Replay.Events); cap(s.Replay.Events) != n {
			t.Errorf("spec %d holds %d events in capacity %d", i, n, cap(s.Replay.Events))
		}
	}
	if evs := w.Specs[1].Replay.Events; len(evs) != 2 || evs[0].At != 3 || evs[1].At != 1_000_000 {
		t.Errorf("flow 8 stream wrong: %+v", evs)
	}

	// One flow injected from two nodes (a closed-loop capture's carried
	// charging: the client's requests plus the server's replies) becomes
	// two independent replay streams.
	carried := sampleTrace()
	carried.Records = append(carried.Records, traffic.TraceRecord{At: 2_000_000, Flow: 8, Src: 3, Dst: 1, Class: noc.ClassRequest})
	_, cw, err := DecodeReplay(carried.Encode(), "replay")
	if err != nil {
		t.Fatal(err)
	}
	if len(cw.Specs) != 5 {
		t.Fatalf("%d specs for a carried-charge trace, want 5", len(cw.Specs))
	}
	if s := cw.Specs[2]; s.Flow != 8 || s.Node != 3 || len(s.Replay.Events) != 1 {
		t.Errorf("carried-charge stream wrong: %+v", s)
	}
}

// TestTraceFileRoundTrip pins the file I/O helpers: ReadTraceFile gives
// back the trace, and ReadReplayFile its header and replay workload.
func TestTraceFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/t.trace"
	want := sampleTrace()
	if err := os.WriteFile(path, want.Encode(), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Header, want.Header) || len(got.Records) != len(want.Records) {
		t.Errorf("file round trip diverged")
	}
	hdr, w, err := ReadReplayFile(path, "replay")
	if err != nil {
		t.Fatal(err)
	}
	_, ww, err := DecodeReplay(want.Encode(), "replay")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hdr, want.Header) || !reflect.DeepEqual(w, ww) {
		t.Errorf("replay file round trip diverged: %+v", hdr)
	}
}

// TestTraceCellHonorsHeader pins Cell(): the header's topology, QoS mode,
// overrides and schedule come back in the rebuilt configuration.
func TestTraceCellHonorsHeader(t *testing.T) {
	cfg, warmup, measure, err := sampleTrace().Cell("replay")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Kind != topology.MeshX2 || cfg.Nodes != 8 || cfg.Seed != 99 {
		t.Errorf("cell config wrong: %+v", cfg)
	}
	if warmup != 1_000 || measure != 5_000 {
		t.Errorf("schedule %d/%d, want 1000/5000", warmup, measure)
	}
	if cfg.QoS.FrameCycles != sim.Cycle(10_000) || cfg.QoS.WindowPackets != 8 ||
		cfg.QoS.QuantumFlits != 16 || cfg.QoS.MarginClasses != 32 {
		t.Errorf("QoS overrides lost: %+v", cfg.QoS)
	}
	for _, bad := range []TraceHeader{
		{Nodes: 8, Topology: "nope", QoS: "pvc"},
		{Nodes: 8, Topology: "mesh_x1", QoS: "nope"},
	} {
		tr := &Trace{Header: bad}
		if _, _, _, err := tr.Cell("x"); err == nil {
			t.Errorf("Cell accepted header %+v", bad)
		}
	}
}
