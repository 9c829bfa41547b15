package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"sort"

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
// including the repro trace a watchdog dump carries — replays with the
// same faults striking at the same cycles and names the engine that made
// it. Encode emits version 1 bytes whenever the fault section would be
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

// Trace is a decoded (or to-be-encoded) injection-stream capture.
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

// DecodeTrace parses an encoded trace, validating the header and every
// record (classes must be the 1- or 4-flit sizes, flows within the
// header's population, sources within the column).
func DecodeTrace(blob []byte) (*Trace, error) {
	if len(blob) < len(traceMagic)+1 || string(blob[:len(traceMagic)]) != traceMagic {
		return nil, fmt.Errorf("workload: not a trace file (bad magic)")
	}
	version := blob[len(traceMagic)]
	if version != traceVersion && version != traceVersionV2 {
		return nil, fmt.Errorf("workload: unsupported trace version %d (want %d or %d)", version, traceVersion, traceVersionV2)
	}
	r := &traceReader{buf: blob, pos: len(traceMagic) + 1}
	t := &Trace{}
	t.Header.Nodes = r.int("nodes")
	t.Header.Seed = r.uvarint("seed")
	t.Header.Warmup = r.int("warmup")
	t.Header.Measure = r.int("measure")
	t.Header.FrameCycles = r.int("frame_cycles")
	t.Header.WindowPackets = r.int("window_packets")
	t.Header.QuantumFlits = r.int("quantum_flits")
	t.Header.MarginClasses = r.int("margin_classes")
	t.Header.Topology = r.str("topology")
	t.Header.QoS = r.str("qos")
	if version == traceVersionV2 {
		t.Header.RetryTimeout = sim.Cycle(r.int("retry timeout"))
		t.Header.MaxRetries = r.int("max retries")
		t.Header.WatchdogCycles = sim.Cycle(r.int("watchdog cycles"))
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
			t.Header.Faults = append(t.Header.Faults, w)
		}
		t.Header.Engine = r.str("engine")
	}
	count := r.uvarint("record count")
	if r.err != nil {
		return nil, r.err
	}
	if t.Header.Nodes < 2 {
		return nil, fmt.Errorf("workload: trace header nodes %d invalid", t.Header.Nodes)
	}
	// A record is at least five one-byte uvarints, so a count the bytes
	// left cannot hold is rejected before it sizes the allocation.
	if left := uint64(len(blob) - r.pos); count > left/5 {
		return nil, fmt.Errorf("workload: trace claims %d records in %d bytes", count, left)
	}
	flows := t.Header.Nodes * topology.InjectorsPerNode
	t.Records = make([]traffic.TraceRecord, 0, count)
	at := sim.Cycle(0)
	for i := uint64(0); i < count; i++ {
		at += sim.Cycle(r.uvarint("cycle delta"))
		flow := r.uvarint("flow")
		src := r.uvarint("src")
		dst := r.uvarint("dst")
		flits := r.uvarint("flits")
		if r.err != nil {
			return nil, r.err
		}
		var class noc.Class
		switch flits {
		case noc.RequestFlits:
			class = noc.ClassRequest
		case noc.ReplyFlits:
			class = noc.ClassReply
		default:
			return nil, fmt.Errorf("workload: trace record %d has %d flits (want %d or %d)", i, flits, noc.RequestFlits, noc.ReplyFlits)
		}
		if flow >= uint64(flows) {
			return nil, fmt.Errorf("workload: trace record %d flow %d outside population of %d", i, flow, flows)
		}
		if src >= uint64(t.Header.Nodes) || dst >= uint64(t.Header.Nodes) {
			return nil, fmt.Errorf("workload: trace record %d node %d/%d outside column of %d", i, src, dst, t.Header.Nodes)
		}
		t.Records = append(t.Records, traffic.TraceRecord{
			At: at, Flow: noc.FlowID(flow), Src: noc.NodeID(src), Dst: noc.NodeID(dst), Class: class,
		})
	}
	if r.pos != len(blob) {
		return nil, fmt.Errorf("workload: %d trailing bytes after trace records", len(blob)-r.pos)
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

// Workload turns the trace into a replayable workload: one injector per
// recorded (flow, source node) pair carrying its record subsequence as a
// Replay stream, in ascending (flow, node) order — for an ordinary
// workload that is one spec per flow in exactly the relative order the
// original constructors used, which is what makes an open-loop
// record→replay reproduce generation order (and therefore packet IDs and
// arbitration tie-breaks) exactly. Closed-loop captures may legitimately
// carry one flow from two nodes (a client's requests plus the server's
// replies charged to that client), so the pair is the grouping key.
func (t *Trace) Workload(name string) (traffic.Workload, error) {
	type streamKey struct {
		flow noc.FlowID
		src  noc.NodeID
	}
	perStream := map[streamKey]*traffic.Replay{}
	for _, r := range t.Records {
		k := streamKey{r.Flow, r.Src}
		rp := perStream[k]
		if rp == nil {
			rp = &traffic.Replay{}
			perStream[k] = rp
		}
		rp.Events = append(rp.Events, traffic.ReplayEvent{At: r.At, Dst: r.Dst, Class: r.Class})
	}
	keys := make([]streamKey, 0, len(perStream))
	for k := range perStream {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].flow != keys[b].flow {
			return keys[a].flow < keys[b].flow
		}
		return keys[a].src < keys[b].src
	})
	w := traffic.Workload{Name: name, Nodes: t.Header.Nodes}
	for _, k := range keys {
		w.Specs = append(w.Specs, traffic.Spec{
			Flow:   k.flow,
			Node:   k.src,
			Replay: perStream[k],
		})
	}
	return w, nil
}

// Cell rebuilds the recorded cell as a replay configuration: the header's
// topology, QoS mode and overrides, seed and column height, with the
// trace as the workload. A version-2 header also restores the recorded
// fault configuration — windows, recovery knobs, watchdog — so faults
// strike the replay at the same cycles. The returned warmup/measure are
// the recorded schedule; running them through WarmupAndMeasure reproduces
// the recorded measurement window (and, for an open-loop recording, its
// delivery fingerprint exactly).
func (t *Trace) Cell(name string) (cfg network.Config, warmup, measure int, err error) {
	kind, err := topology.KindByName(t.Header.Topology)
	if err != nil {
		return network.Config{}, 0, 0, fmt.Errorf("workload: trace header: %w", err)
	}
	mode, err := qos.ModeByName(t.Header.QoS)
	if err != nil {
		return network.Config{}, 0, 0, fmt.Errorf("workload: trace header: %w", err)
	}
	w, err := t.Workload(name)
	if err != nil {
		return network.Config{}, 0, 0, err
	}
	qcfg := qos.DefaultConfig(w.TotalFlows())
	qcfg.Mode = mode
	if t.Header.FrameCycles > 0 {
		qcfg.FrameCycles = sim.Cycle(t.Header.FrameCycles)
	}
	if t.Header.WindowPackets > 0 {
		qcfg.WindowPackets = t.Header.WindowPackets
	}
	if t.Header.QuantumFlits > 0 {
		qcfg.QuantumFlits = t.Header.QuantumFlits
	}
	if t.Header.MarginClasses > 0 {
		qcfg.MarginClasses = t.Header.MarginClasses
	}
	return network.Config{
		Kind:     kind,
		Nodes:    t.Header.Nodes,
		QoS:      qcfg,
		Workload: w,
		Seed:     t.Header.Seed,
		Faults: network.FaultConfig{
			Windows:      t.Header.Faults,
			RetryTimeout: t.Header.RetryTimeout,
			MaxRetries:   t.Header.MaxRetries,
		},
		WatchdogCycles: t.Header.WatchdogCycles,
	}, t.Header.Warmup, t.Header.Measure, nil
}
