// Package workload is the closed-loop traffic subsystem and the
// deterministic trace layer of tanoq, built on the engine's workload-
// attachment surface (network.SetDeliveryHook / SetGenHook /
// ScheduleInjection).
//
// # Closed-loop clients
//
// The open-loop generators of internal/traffic inject at a configured
// rate no matter what the network does. Real clients are closed-loop:
// they hold a bounded window of outstanding requests and wait for replies
// before issuing more work. Controller models that — per-node clients at
// the terminal injectors with an Outstanding-deep window and geometric
// think time. A client request (1 flit, noc.KindRequest) delivered at its
// destination triggers a reply (4 flits, noc.KindReply) injected at the
// ejection side by the server node's terminal injector in the same cycle;
// the reply's delivery back at the client credits the window, and after a
// think-time draw the client issues its next request. Every client
// wake-up is a first-class engine event (ScheduleInjection), so idle-skip
// horizons stay exact and closed-loop runs are bit-identical with
// skipping on or off and for any worker count.
//
// This is the regime where QoS changes end-to-end throughput rather than
// just latency tails: a starved flow stalls its client's window, so
// no-QoS hotspot starvation compounds into client throughput collapse,
// while PVC keeps the per-client completion counts balanced (see
// experiments.ClosedLoop and stats.RoundTrip).
//
// # Trace record and replay
//
// Recorder captures any run's injection stream — open- or closed-loop —
// through the engine's generation hook as traffic.TraceRecord values
// ({cycle, flow, src, dst, flits}), and Trace encodes them into a compact
// binary format (magic "TQTR", a self-describing header with the recorded
// cell's topology/QoS/schedule, then varint delta-encoded records).
// DecodeReplay turns an encoded trace back into a first-class injection
// source: one traffic.Spec per recorded (flow, source) stream whose
// Replay the engine emits verbatim through the ordinary arrival schedule,
// consuming no randomness. It builds the streams straight from the bytes
// into one exact-size event slice, with no decoded record slice between.
//
// Replay is deterministic by construction — bit-identical across worker
// counts and idle-skip settings — and recording an open-loop run and
// replaying its trace reproduces the original delivery fingerprint
// exactly (generation order, packet IDs and therefore every arbitration
// tie-break coincide; pinned by TestOpenLoopRecordReplayFingerprint).
// Replaying a recorded closed-loop run reproduces its injection stream,
// not its feedback dynamics: same-cycle generation order may differ from
// the closed-loop original, so the replay is a faithful open-loop
// re-execution of the captured workload rather than a bit-exact rerun.
// Captured workloads make any interesting injection stream a reproducible
// regression scenario (noctool trace record|replay|info, the scenario
// [workload] trace axis, and make trace-smoke).
package workload
