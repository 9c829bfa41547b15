// Package tanoq is a from-scratch reproduction of "Topology-aware
// Quality-of-Service Support in Highly Integrated Chip Multiprocessors"
// (Grot, Keckler, Mutlu — WIOSCA 2010).
//
// The library models the paper's complete system stack:
//
//   - a cycle-driven, virtual cut-through network-on-chip simulator for the
//     QoS-enabled shared region of a highly integrated CMP
//     (internal/network),
//   - the Preemptive Virtual Clock QoS scheme with flow-state tables,
//     frames, reserved quotas, preemption, the dedicated ACK network and
//     source retransmission windows (internal/qos, internal/network),
//   - five shared-region topologies: mesh x1/x2/x4, MECS and Destination
//     Partitioned Subnets (internal/topology),
//   - a synthetic traffic pattern library — uniform random, tornado, the
//     bit-permutation canon (transpose, bit-complement, bit-reversal,
//     shuffle), weighted hotspots and MMPP-style bursty on/off sources —
//     plus the paper's adversarial preemption workloads
//     (internal/traffic),
//   - a declarative scenario subsystem: JSON/TOML files describing
//     pattern × topology × QoS × rate × seed sweep grids, validated and
//     expanded onto the parallel runner, with the paper's own evaluation
//     grids re-expressed as scenario files under examples/paper/
//     (internal/scenario, noctool sweep),
//   - a closed-loop workload subsystem (internal/workload): per-node
//     request–reply clients with a bounded window of outstanding
//     requests and geometric think time, wired through the engine's
//     delivery hook and scheduled-injection surface — a delivered
//     request triggers a reply at the ejection side, charged to the
//     requesting client's flow, and the reply's delivery credits the
//     client's window — the first workload class where QoS mode changes
//     end-to-end client throughput rather than just latency tails
//     (noctool closed; the scenario [workload] table sweeps
//     mode/outstanding/think_time),
//   - a deterministic trace layer (internal/workload): a recorder
//     capturing any run's injection stream through the engine's
//     generation hook, a compact varint-delta binary format with a
//     self-describing header, and a replayer that re-runs the stream as
//     a first-class injection source behind the engine's arrival
//     schedule — replaying an open-loop recording reproduces its
//     delivery fingerprint exactly, and replays are bit-identical
//     across worker counts and idle-skip settings (noctool trace
//     record|replay|info, make trace-smoke),
//   - Orion/CACTI-style analytical area and energy models at 32 nm
//     (internal/physical),
//   - the chip-level topology-aware architecture: a 256-tile CMP with 4-way
//     concentration, convex VM domains, shared-resource columns and the OS
//     placement contract (internal/chip, internal/core),
//   - one experiment driver per table and figure in the paper's evaluation
//     (internal/experiments, cmd/noctool),
//   - a parallel experiment runner (internal/runner) that fans the
//     independent simulation cells of each evaluation grid out across a
//     worker pool, with one reusable simulation engine per worker slot
//     (network.Reset re-targets it per cell). Determinism survives both
//     parallelization and reuse: every cell owns its seeded RNG, results
//     return in input order, and experiment output is bit-identical for
//     every worker count and to fresh per-cell builds (noctool -parallel).
//
// The engine is hybrid tick/event-driven, O(work) instead of O(cycles x
// machine size): injection is sampled by geometric inter-arrival gaps
// (one RNG draw per packet, statistically identical to the modeled
// per-cycle Bernoulli process), sources sit on an arrival wheel and an
// offerable list so a cycle touches only the injectors acting in it,
// arbitration visits only ports holding candidates, everything scheduled
// lives on O(1) timing wheels that share one occupancy map, and Run
// jumps the clock across provably idle windows to the next cycle any
// wheel holds a record for, injection-VC free or PVC frame boundary and
// steps it. Skipping is mechanical: with it disabled the
// engine ticks through every cycle and produces bit-identical results
// (asserted across all topologies and QoS modes).
//
// The engine core is data-oriented (see internal/network's package doc
// for the full design): offered and in-network packets live in a flat
// arena addressed by 32-bit generation-guarded handles rather than behind
// pointers (the backlog behind each source waits as 32-byte pending
// records, so the arena is bounded by the network), router state is
// struct-of-arrays (value-slice ports/buffers/sources; per-buffer VC
// state as parallel arrays with a free-VC occupancy bitmap), PVC
// priorities are cached per port in flat per-flow arrays maintained
// eagerly on bandwidth recording and frame flush, and events are 24-byte
// pointer-free records. Every hot container is invisible to the garbage
// collector, steady-state operation allocates exactly nothing (packet
// slots recycle through a free stack; containers are pre-sized to their
// working set), and the layout is mechanical — results are bit-identical
// to the historical pointer-based engine. Host time is measured one way:
// `go run ./benchmark` drives the built noctool through six workloads
// and reports the metrics BENCHMARK.json names (benchmark/README.md);
// `noctool sweep -http ADDR` serves /debug/pprof for profiling the
// shipped tool in place.
//
// The root package holds only this overview; the programmable surface
// lives in the internal packages and is exercised by the examples under
// examples/.
package tanoq
