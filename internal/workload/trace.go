package workload

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"

	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Trace binary format (little varints throughout, magic "TQTR" + version):
//
//	"TQTR" <version=1|2>
//	uvarint nodes seed warmup measure
//	uvarint frame_cycles window_packets quantum_flits margin_classes
//	uvarint len(topology) <topology bytes> uvarint len(qos) <qos bytes>
//	version 2 only (fault section):
//	  uvarint retry_timeout max_retries watchdog_cycles window_count
//	  window*: uvarint kind port node from until
//	  uvarint len(engine) <engine bytes>
//	uvarint record_count
//	record*: uvarint cycle_delta flow src dst flits
//
// Records are stored in generation order, so cycles are non-decreasing
// and delta-encoding keeps the common record at five single-byte varints
// (~5 bytes/packet). The header captures the recorded cell — topology,
// QoS mode and overrides, seed and warmup/measure schedule — so a trace
// is self-contained: `noctool trace replay` rebuilds the exact cell and
// reproduces the recorded delivery fingerprint.
//
// Version 2 adds the cell's fault configuration (scheduled fault windows,
// retry timeout and bound, watchdog arming) plus the engine version stamp
// of the recording binary, so a trace captured from a faulted cell —
// including the repro trace `noctool trace record` writes for a cell the
// watchdog trips — replays with the same faults striking at the same
// cycles and names the engine that made it. Encode emits version 1 bytes whenever the fault section would be
// empty, so fault-free traces stay byte-identical to the original format.

const (
	traceMagic     = "TQTR"
	traceVersion   = 1
	traceVersionV2 = 2
)

// TraceHeader describes the cell a trace was recorded from.
type TraceHeader struct {
	// Nodes is the column height of the recorded network.
	Nodes int
	// Topology and QoS are the recorded cell's topology kind and QoS
	// mode, by name (topology.Kind.String / qos.Mode.String).
	Topology string
	QoS      string
	// Seed is the recorded cell's RNG seed (replay consumes no
	// randomness, but reusing it keeps provenance and derived streams
	// identical).
	Seed uint64
	// Warmup and Measure are the recorded schedule in cycles; replaying
	// with the same schedule reproduces the measurement window.
	Warmup  int
	Measure int
	// QoS parameter overrides of the recorded cell (0 = defaults), the
	// same four knobs a scenario file can set.
	FrameCycles   int
	WindowPackets int
	QuantumFlits  int
	MarginClasses int
	// Fault configuration of the recorded cell: scheduled fault windows,
	// end-to-end recovery knobs and the watchdog window. All zero for a
	// healthy cell, in which case Encode emits version-1 bytes.
	Faults         []noc.FaultWindow
	RetryTimeout   sim.Cycle
	MaxRetries     int
	WatchdogCycles sim.Cycle
	// Engine is the version stamp of the engine that recorded the trace
	// (network.EngineVersion at record time). It rides in the version-2
	// section only: a fault-free header encodes as version 1 and drops
	// the stamp, keeping the original format byte-identical.
	Engine string
}

// faulted reports whether the header carries any fault-section state and
// therefore needs the version-2 encoding.
func (h *TraceHeader) faulted() bool {
	return len(h.Faults) > 0 || h.RetryTimeout > 0 || h.MaxRetries > 0 || h.WatchdogCycles > 0
}

// Trace is a decoded (or to-be-encoded) injection-stream capture. Replay
// needs no record slice: DecodeReplay builds from the encoded bytes.
type Trace struct {
	Header  TraceHeader
	Records []traffic.TraceRecord
}

// Encode renders the trace in the binary format: version 1 when the
// header carries no fault state, version 2 otherwise.
func (t *Trace) Encode() []byte {
	version := byte(traceVersion)
	if t.Header.faulted() {
		version = traceVersionV2
	}
	out := make([]byte, 0, len(traceMagic)+1+32+len(t.Header.Faults)*6+len(t.Records)*5)
	out = append(out, traceMagic...)
	out = append(out, version)
	out = binary.AppendUvarint(out, uint64(t.Header.Nodes))
	out = binary.AppendUvarint(out, t.Header.Seed)
	out = binary.AppendUvarint(out, uint64(t.Header.Warmup))
	out = binary.AppendUvarint(out, uint64(t.Header.Measure))
	out = binary.AppendUvarint(out, uint64(t.Header.FrameCycles))
	out = binary.AppendUvarint(out, uint64(t.Header.WindowPackets))
	out = binary.AppendUvarint(out, uint64(t.Header.QuantumFlits))
	out = binary.AppendUvarint(out, uint64(t.Header.MarginClasses))
	out = appendString(out, t.Header.Topology)
	out = appendString(out, t.Header.QoS)
	if version == traceVersionV2 {
		out = binary.AppendUvarint(out, uint64(t.Header.RetryTimeout))
		out = binary.AppendUvarint(out, uint64(t.Header.MaxRetries))
		out = binary.AppendUvarint(out, uint64(t.Header.WatchdogCycles))
		out = binary.AppendUvarint(out, uint64(len(t.Header.Faults)))
		for _, w := range t.Header.Faults {
			out = binary.AppendUvarint(out, uint64(w.Kind))
			out = binary.AppendUvarint(out, uint64(w.Port))
			out = binary.AppendUvarint(out, uint64(w.Node))
			out = binary.AppendUvarint(out, uint64(w.From))
			out = binary.AppendUvarint(out, uint64(w.Until))
		}
		out = appendString(out, t.Header.Engine)
	}
	out = binary.AppendUvarint(out, uint64(len(t.Records)))
	prev := sim.Cycle(0)
	for _, r := range t.Records {
		out = binary.AppendUvarint(out, uint64(r.At-prev))
		prev = r.At
		out = binary.AppendUvarint(out, uint64(r.Flow))
		out = binary.AppendUvarint(out, uint64(r.Src))
		out = binary.AppendUvarint(out, uint64(r.Dst))
		out = binary.AppendUvarint(out, uint64(r.Class.Flits()))
	}
	return out
}

func appendString(out []byte, s string) []byte {
	out = binary.AppendUvarint(out, uint64(len(s)))
	return append(out, s...)
}

// traceReader walks an encoded trace, recording the first error.
type traceReader struct {
	buf []byte
	pos int
	err error
}

func (r *traceReader) uvarint(what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.pos:])
	if n <= 0 {
		r.err = fmt.Errorf("workload: trace truncated reading %s", what)
		return 0
	}
	r.pos += n
	return v
}

// int reads a uvarint that must fit a non-negative int, as every
// header count, cycle and index does: a larger value is a corrupt file,
// not a negative field.
func (r *traceReader) int(what string) int {
	v := r.uvarint(what)
	if v > math.MaxInt && r.err == nil {
		r.err = fmt.Errorf("workload: trace %s %d out of range", what, v)
	}
	return int(v)
}

func (r *traceReader) str(what string) string {
	n := r.int(what + " length")
	if r.err != nil {
		return ""
	}
	if n > len(r.buf)-r.pos {
		r.err = fmt.Errorf("workload: trace truncated reading %s", what)
		return ""
	}
	s := string(r.buf[r.pos : r.pos+n])
	r.pos += n
	return s
}

// traceDecoder is a trace with its header parsed and validated; each
// walks its records afresh on every call.
type traceDecoder struct {
	hdr   TraceHeader
	count uint64
	blob  []byte
	start int // offset of the first record
}

// newTraceDecoder parses and validates an encoded trace's header and
// record count.
func newTraceDecoder(blob []byte) (*traceDecoder, error) {
	if len(blob) < len(traceMagic)+1 || string(blob[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (bad magic)")
	}
	version := blob[len(traceMagic)]
	if version != traceVersion && version != traceVersionV2 {
		return nil, fmt.Errorf("workload: unsupported trace version %d (want %d or %d)", version, traceVersion, traceVersionV2)
	}
	r := &traceReader{buf: blob, pos: len(traceMagic) + 1}
	d := &traceDecoder{blob: blob}
	h := &d.hdr
	h.Nodes = r.int("nodes")
	h.Seed = r.uvarint("seed")
	h.Warmup = r.int("warmup")
	h.Measure = r.int("measure")
	h.FrameCycles = r.int("frame_cycles")
	h.WindowPackets = r.int("window_packets")
	h.QuantumFlits = r.int("quantum_flits")
	h.MarginClasses = r.int("margin_classes")
	h.Topology = r.str("topology")
	h.QoS = r.str("qos")
	if version == traceVersionV2 {
		h.RetryTimeout = sim.Cycle(r.int("retry timeout"))
		h.MaxRetries = r.int("max retries")
		h.WatchdogCycles = sim.Cycle(r.int("watchdog cycles"))
		windows := r.uvarint("fault window count")
		for i := uint64(0); i < windows && r.err == nil; i++ {
			w := noc.FaultWindow{
				Kind:  noc.FaultKind(r.uvarint("fault kind")),
				Port:  r.int("fault port"),
				Node:  r.int("fault node"),
				From:  sim.Cycle(r.int("fault from")),
				Until: sim.Cycle(r.int("fault until")),
			}
			if r.err != nil {
				break
			}
			if err := w.Validate(); err != nil {
				return nil, fmt.Errorf("workload: trace fault window %d: %w", i, err)
			}
			h.Faults = append(h.Faults, w)
		}
		h.Engine = r.str("engine")
	}
	d.count = r.uvarint("record count")
	if r.err != nil {
		return nil, r.err
	}
	if h.Nodes < 2 {
		return nil, fmt.Errorf("workload: trace header nodes %d invalid", h.Nodes)
	}
	// A record is at least five one-byte uvarints, so a count the bytes
	// left cannot hold is rejected before it sizes an allocation.
	if left := uint64(len(blob) - r.pos); d.count > left/5 {
		return nil, fmt.Errorf("workload: trace claims %d records in %d bytes", d.count, left)
	}
	d.start = r.pos
	return d, nil
}

// each validates the records in file order, handing each to emit (classes
// must be the 1- or 4-flit sizes, flows within the header's population,
// nodes within the column), then rejects trailing bytes. A record that
// fails stops the walk: the records before it have been emitted.
func (d *traceDecoder) each(emit func(traffic.TraceRecord)) error {
	r := &traceReader{buf: d.blob, pos: d.start}
	flows := d.hdr.Nodes * topology.InjectorsPerNode
	at := sim.Cycle(0)
	for i := uint64(0); i < d.count; i++ {
		at += sim.Cycle(r.uvarint("cycle delta"))
		flow := r.uvarint("flow")
		src := r.uvarint("src")
		dst := r.uvarint("dst")
		flits := r.uvarint("flits")
		if r.err != nil {
			return r.err
		}
		var class noc.Class
		switch flits {
		case noc.RequestFlits:
			class = noc.ClassRequest
		case noc.ReplyFlits:
			class = noc.ClassReply
		default:
			return fmt.Errorf("workload: trace record %d has %d flits (want %d or %d)", i, flits, noc.RequestFlits, noc.ReplyFlits)
		}
		if flow >= uint64(flows) {
			return fmt.Errorf("workload: trace record %d flow %d outside population of %d", i, flow, flows)
		}
		if src >= uint64(d.hdr.Nodes) || dst >= uint64(d.hdr.Nodes) {
			return fmt.Errorf("workload: trace record %d node %d/%d outside column of %d", i, src, dst, d.hdr.Nodes)
		}
		emit(traffic.TraceRecord{At: at, Flow: noc.FlowID(flow), Src: noc.NodeID(src), Dst: noc.NodeID(dst), Class: class})
	}
	if r.pos != len(d.blob) {
		return fmt.Errorf("workload: %d trailing bytes after trace records", len(d.blob)-r.pos)
	}
	return nil
}

// DecodeTrace parses an encoded trace into its header and records,
// validating both (replay needs no records: see DecodeReplay).
func DecodeTrace(blob []byte) (*Trace, error) {
	d, err := newTraceDecoder(blob)
	if err != nil {
		return nil, err
	}
	t := &Trace{Header: d.hdr, Records: make([]traffic.TraceRecord, 0, d.count)}
	if err := d.each(func(r traffic.TraceRecord) { t.Records = append(t.Records, r) }); err != nil {
		return nil, err
	}
	return t, nil
}

// ReadTraceFile reads and decodes the trace at path.
func ReadTraceFile(path string) (*Trace, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("workload: %w", err)
	}
	return DecodeTrace(blob)
}

// DecodeReplay validates an encoded trace as DecodeTrace does (same
// errors) and returns its header and replay workload: one injector per
// recorded (flow, source node) pair — closed-loop captures may carry one
// flow from two nodes — replaying its records, in ascending (flow, node)
// order. For an ordinary workload that is one spec per flow in the order
// the original constructors used, so an open-loop replay reproduces
// generation order, packet IDs and arbitration tie-breaks exactly. The
// records are walked twice, to count each pair's and then to fill one
// exact-size event slice carved into the pairs' streams; no decoded
// record slice exists on the way.
func DecodeReplay(blob []byte, name string) (TraceHeader, traffic.Workload, error) {
	d, err := newTraceDecoder(blob)
	if err != nil {
		return TraceHeader{}, traffic.Workload{}, err
	}
	type streamKey struct {
		flow noc.FlowID
		src  noc.NodeID
	}
	counts := map[streamKey]int{}
	if err := d.each(func(r traffic.TraceRecord) { counts[streamKey{r.Flow, r.Src}]++ }); err != nil {
		return TraceHeader{}, traffic.Workload{}, err
	}
	keys := make([]streamKey, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b streamKey) int {
		return cmp.Or(cmp.Compare(a.flow, b.flow), cmp.Compare(a.src, b.src))
	})
	events := make([]traffic.ReplayEvent, d.count)
	replays := make([]traffic.Replay, len(keys))
	streams := make(map[streamKey]*traffic.Replay, len(keys))
	w := traffic.Workload{Name: name, Nodes: d.hdr.Nodes, Specs: make([]traffic.Spec, len(keys))}
	for i, k := range keys {
		n := counts[k]
		replays[i].Events, events = events[:0:n], events[n:]
		streams[k] = &replays[i]
		w.Specs[i] = traffic.Spec{Flow: k.flow, Node: k.src, Replay: &replays[i]}
	}
	// Every append lands in the capacity carved above.
	if err := d.each(func(r traffic.TraceRecord) {
		rp := streams[streamKey{r.Flow, r.Src}]
		rp.Events = append(rp.Events, traffic.ReplayEvent{At: r.At, Dst: r.Dst, Class: r.Class})
	}); err != nil {
		return TraceHeader{}, traffic.Workload{}, err
	}
	return d.hdr, w, nil
}

// ReadReplayFile reads the trace at path and returns its header and its
// replay workload (DecodeReplay).
func ReadReplayFile(path, name string) (TraceHeader, traffic.Workload, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return TraceHeader{}, traffic.Workload{}, fmt.Errorf("workload: %w", err)
	}
	return DecodeReplay(blob, name)
}

// Cell rebuilds the recorded cell as a replay configuration. It builds
// the workload from the encoded trace, so an in-memory trace replays
// exactly as its file would.
func (t *Trace) Cell(name string) (cfg network.Config, warmup, measure int, err error) {
	_, w, err := DecodeReplay(t.Encode(), name)
	if err != nil {
		return network.Config{}, 0, 0, err
	}
	return t.Header.Cell(w)
}

// Cell rebuilds the recorded cell as a replay configuration: the header's
// topology, QoS mode and overrides, seed and column height, with w (the
// trace's replay workload) as the workload. A version-2 header also
// restores the recorded fault configuration — windows, recovery knobs,
// watchdog — so faults strike the replay at the same cycles. The
// returned warmup/measure are the recorded schedule; running them
// through WarmupAndMeasure reproduces the recorded measurement window
// (and, for an open-loop recording, its delivery fingerprint exactly).
func (h *TraceHeader) Cell(w traffic.Workload) (cfg network.Config, warmup, measure int, err error) {
	kind, err := topology.KindByName(h.Topology)
	if err != nil {
		return network.Config{}, 0, 0, fmt.Errorf("workload: trace header: %w", err)
	}
	mode, err := qos.ModeByName(h.QoS)
	if err != nil {
		return network.Config{}, 0, 0, fmt.Errorf("workload: trace header: %w", err)
	}
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = mode
	if h.FrameCycles > 0 {
		qcfg.FrameCycles = sim.Cycle(h.FrameCycles)
	}
	if h.WindowPackets > 0 {
		qcfg.WindowPackets = h.WindowPackets
	}
	if h.QuantumFlits > 0 {
		qcfg.QuantumFlits = h.QuantumFlits
	}
	if h.MarginClasses > 0 {
		qcfg.MarginClasses = h.MarginClasses
	}
	return network.Config{
		Kind:     kind,
		Nodes:    h.Nodes,
		QoS:      qcfg,
		Workload: w,
		Seed:     h.Seed,
		Faults: network.FaultConfig{
			Windows:      h.Faults,
			RetryTimeout: h.RetryTimeout,
			MaxRetries:   h.MaxRetries,
		},
		WatchdogCycles: h.WatchdogCycles,
	}, h.Warmup, h.Measure, nil
}
