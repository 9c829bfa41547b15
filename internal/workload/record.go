package workload

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"tanoq/internal/network"
	"tanoq/internal/sim"
	"tanoq/internal/stats"
	"tanoq/internal/traffic"
)

// Recorder captures a run's injection stream through the engine's
// generation hook. Attach it before running; every generated packet —
// open-loop, replayed or closed-loop — lands in Records in generation
// order, ready to encode as a Trace. It is also the watchdog's repro
// capture: on a run the watchdog trips it holds every generation up to
// the trip, which replayed in the same cell wedges at the same cycle.
type Recorder struct {
	records []traffic.TraceRecord
}

// Attach installs the recorder on the network (replacing any previously
// installed generation hook). network.Reset clears the hook; re-attach
// per cell.
func (r *Recorder) Attach(n *network.Network) {
	n.SetGenHook(func(tr traffic.TraceRecord) {
		r.records = append(r.records, tr)
	})
}

// Len returns the number of captured records.
func (r *Recorder) Len() int { return len(r.records) }

// Trace wraps the captured stream with a header describing the recorded
// cell.
func (r *Recorder) Trace(hdr TraceHeader) *Trace {
	return &Trace{Header: hdr, Records: r.records}
}

// Fingerprint condenses a finished run's delivery observables — totals,
// last delivery, final clock and the full per-flow flit vector — into a
// 16-hex-digit FNV-1a digest. Two runs with equal fingerprints delivered
// the same packet population with the same latencies to the same flows;
// the record→replay contract (and `make trace-smoke`) diffs exactly this.
func Fingerprint(st *stats.Collector, end sim.Cycle) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(st.TotalDelivered))
	put(uint64(st.TotalLatency))
	put(uint64(st.InjectedPackets))
	put(uint64(st.Retransmits))
	put(uint64(st.PreemptionEvents))
	put(uint64(st.WastedHops))
	put(uint64(st.TotalHops))
	put(uint64(st.LastDelivery))
	put(uint64(end))
	for _, f := range st.DeliveredFlits {
		put(uint64(f))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
