// Package scenario is the declarative workload layer: it resolves JSON
// or TOML scenario files into validated, defaulted sweep grids over the
// simulator's full configuration space — synthetic traffic pattern,
// topology, QoS mode, injection rate, seed — and runs them through the
// parallel experiment runner. What previously required a hand-written Go
// driver per workload (internal/experiments' figure drivers) is now a
// small text file; the paper's own evaluation grids are re-expressed as
// the scenario files under examples/paper/ and pinned bit-identical to
// the original drivers by tests.
//
// # Layered resolution
//
// A scenario is not one flat file but the merge of an ordered layer
// stack, resolved by Resolve(...Layer). Precedence, lowest first:
//
//	defaults < include chain < file < profile < env < CLI overrides
//
// FileLayer loads a file and recursively loads its `include` list first
// (paths resolve against the including file's directory; cycles are
// detected and rejected with ErrIncludeCycle). ProfileLayer applies one
// named [profiles.<name>] patch — a table that may override any subset
// of scenario keys; profiles defined in included files are inherited and
// may be extended by the includer. EnvLayer applies TANOQ_SET_*
// variables (TANOQ_SET_WORKLOAD__MODE=closed sets workload.mode), and
// SetLayer/OverrideLayer apply `key=value` expressions on behalf of CLI
// flags (noctool's repeatable -set, and -quick/-seed/-warmup/-measure).
// A path segment may index an existing array-of-tables element, spelled
// as -explain prints it: `-set flows[1].rate=0.3`.
//
// Merging is deep for tables (maps merge key by key) and replacing for
// scalars and lists. The singular/plural axis spellings are aliases
// across layers: a later layer setting either spelling retires the
// other, so a profile's `rate = 0.05` overrides a base file's
// `rates = [...]` instead of colliding with it — while a single source
// setting both spellings is still rejected. Every resolved key carries
// an Origin (layer + file:line); Resolution.Explain renders the whole
// resolved scenario with per-key provenance (noctool sweep -explain),
// and Resolution.Origin answers for one key. Unknown keys are rejected
// at every layer, and every load/decode error is a *ParseError carrying
// the offending file, line, key and layer (errors.Is/As compatible, with
// ErrUnknownKey/ErrUnknownProfile/ErrIncludeCycle sentinels).
//
// Load (one file) and Parse (in-memory blob) remain as
// single-layer facades over Resolve. Cache keys (Grid.Keys) are computed
// over the resolved canonical scenario, so two routes to the same
// resolved grid — a profile selection or a hand-flattened file — share
// cache entries; includes and profiles are cache-transparent.
//
// # File format
//
// A scenario is one JSON object or TOML document. Every list-valued
// field is a sweep axis; the run grid is the cross product, expanded in
// the order pattern × topology × qos × seed × rate. Fields (singular and
// plural spellings both accepted on the axes):
//
//	include           list of parent scenario files merged below this one
//	                  (file-backed scenarios only; paths are relative to
//	                  the including file)
//	name              label for output rows (default: file base name)
//	pattern(s)        uniform | tornado | transpose | bit-complement |
//	                  bit-reversal | shuffle | hotspot   (default uniform)
//	topology(ies)     mesh_x1 | mesh_x2 | mesh_x4 | mecs | dps | all
//	                  (default all)
//	qos               pvc | per-flow-queue | no-qos | all  (default pvc)
//	rate(s)           per-injector offered load in flits/cycle, (0,1]
//	seed(s)           RNG seeds (default 42)
//	nodes             column height (default 8; bit-permutation patterns
//	                  need a power of two)
//	warmup, measure   per-cell schedule in cycles (default 20000/100000)
//	stop_at           cycle at which injection halts (0 = never)
//	request_fraction  1-flit-request share of packets (default 0.5)
//	hotspot_weights   per-node destination weights for pattern "hotspot"
//	                  (rejected unless hotspot is on the pattern axis)
//	burst             { mean_on, mean_off }: MMPP-style on/off windows in
//	                  cycles; rate stays the long-run mean
//	flows             explicit injector list replacing pattern × rates:
//	                  each { node, injector, rate, dest, stop_at, role }
//	                  with dest a node index or "hotspot"; role tags a
//	                  flow "victim" or "aggressor" — any victim makes
//	                  every row report the victims' mean-latency slowdown
//	                  versus a hidden victim-only reference cell
//	frame_cycles, window_packets, quantum_flits, margin_classes
//	                  QoS parameter overrides (defaults from package qos)
//
// The [workload] table selects the workload class and its axes
// (internal/workload):
//
//	mode(s)           open | closed, an axis (default open). Closed cells
//	                  run per-node request–reply clients — the pattern
//	                  axis picks request destinations — and fan out over
//	                  outstanding × think_time instead of the rate axis.
//	outstanding       closed: window of outstanding requests per client,
//	                  an axis (default 4)
//	think_time(s)     closed: mean think cycles between reply and next
//	                  request, an axis (default 0 = back-to-back)
//	request_flits, reply_flits
//	                  closed: transaction shape, 1 or 4 (default 1/4 =
//	                  read-shaped; 4/1 models write-shaped traffic whose
//	                  bandwidth rides the request path)
//	trace(s)          replay axis: recorded binary traces (relative paths
//	                  resolve against the scenario file) replayed verbatim
//	                  as trace × topology × qos × seed cells; mutually
//	                  exclusive with patterns/rates/flows and mode
//
// The [faults] table schedules hardware fault injection and arms
// end-to-end recovery (open-loop cells only; see internal/network's
// FaultConfig). Windows are dotted array-of-tables — the [faults] header
// must precede its [[faults.link]]/[[faults.router]] entries:
//
//	retry_timeout(s)  source delivery-timeout axis in cycles (0 = no
//	                  recovery; fault-killed packets become final drops).
//	                  Timeouts back off exponentially per retransmission.
//	max_retries       retransmissions per packet before it is abandoned,
//	                  an axis (default 3 when any retry_timeout is set)
//	watchdog_cycles   no-forward-progress watchdog budget (0 = disarmed);
//	                  a trip fails the cell with a structured dump;
//	                  `noctool trace record` of the cell writes its
//	                  repro trace
//	[[faults.link]]   { port, from, until, permanent }: output port loses
//	                  its flits in flight and stalls for [from, until), or
//	                  dies for good with permanent = true (until omitted)
//	[[faults.router]] { node, from, until }: every output of one router
//	                  freezes for the window — nothing is lost, traffic
//	                  queues and resumes; omit until for a permanent wedge
//
// Faulted rows add delivered fraction, retry/drop counts and mean
// recovery latency; Degrade additionally joins each faulted point
// against its fault-free baseline (noctool's degrade subcommand).
//
// The [run] table tunes durable execution. None of its knobs can change
// a result — only whether and how cells execute — so they stay out of
// the cells' cache keys:
//
//	deadline_ms       wall-clock budget per cell (must be positive when
//	                  present; a cell past its deadline is aborted
//	                  cooperatively at a cycle boundary and retried)
//	retries           extra attempts per failed cell (default 1; an
//	                  explicit 0 disables retries)
//	backoff_ms        base delay before retrying a failed cell, doubling
//	                  per attempt (default 0 = immediate)
//	cache             opt the scenario into the content-addressed result
//	                  cache (noctool's -cache/-resume flags also enable
//	                  it; see Grid.Stream and internal/store)
//
// The [telemetry] table attaches deterministic in-run probes to every
// cell (internal/telemetry). Probes are display-only, so like [run] the
// table stays out of cache keys:
//
//	interval          probe period in cycles (required, positive)
//	series            the series to record (default all)
//	top_flows         flows the timeline emitters print (default 8)
//
// Grid.Keys content-addresses every cell — a SHA-256 over the values of
// the keys its kind reads, as the field table (fields.go) declares them,
// a replay cell's trace-file bytes and network.ModelVersion — and
// Grid.Stream runs a grid through the cache in fixed chunks of cells,
// handing each chunk's rows to a sink in grid order as it finishes
// (RowWriter writes them as CSV, a table or the JSON report), so a
// sweep holds one chunk of rows, not its grid's: hits are served without
// simulating, misses execute with the deadline/retry budget and are
// checkpointed (store entry + journal line) the moment they finish, and
// cancelling the context drains in-flight cells and streams the rest of
// the grid with never-issued cells marked skipped. Grid.RunDurable is
// Stream collecting every row, for callers that need the whole grid at
// once. Because cells are
// deterministic, a resumed sweep's table is byte-identical to an
// uninterrupted one and a fully cached sweep executes zero simulations.
//
// [profiles.<name>] tables hold named patches over any subset of the
// keys above (including nested tables like [profiles.durable.run]);
// nothing applies until a profile is selected by the file argument's
// suffix, as in `noctool sweep file.toml#quick`. Unknown keys are
// rejected at every layer, so typos fail loudly instead of silently
// dropping an axis. See examples/sweep/ for runnable files (base.toml is
// the shared include) and cmd/noctool's sweep subcommand for the CLI
// entry point.
//
// Every result row carries Table-2-style fairness dispersion —
// min/max/stddev of per-flow delivered flits (open/replay cells) or
// per-client completed requests (closed cells) as percentages of the
// mean — alongside the latency and throughput aggregates.
//
// # Determinism
//
// A grid cell's randomness derives entirely from its (workload, seed)
// pair, so results are bit-identical for every worker count and with
// idle skipping on or off — the same contract the paper's experiment
// drivers carry, enforced for scenarios by this package's tests.
package scenario
