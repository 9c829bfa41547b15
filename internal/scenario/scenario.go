package scenario

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Scenario is one declarative workload description, decoded from a JSON
// or TOML file (see the package documentation for the file format). The
// list-valued fields are sweep axes: the expanded grid is their cross
// product, one independent simulation cell per point.
type Scenario struct {
	// Name labels output rows; defaults to the file's base name.
	Name string
	// Patterns are synthetic-pattern sweep values (traffic.PatternNames).
	// Mutually exclusive with Flows.
	Patterns []string
	// Topologies and Modes are the topology × QoS sweep axes.
	Topologies []topology.Kind
	Modes      []qos.Mode
	// Rates is the per-injector offered-load axis (flits/cycle).
	Rates []float64
	// Seeds is the RNG-seed axis.
	Seeds []uint64
	// Nodes is the column height (default topology.ColumnNodes).
	Nodes int
	// Warmup and Measure are the per-cell schedule in cycles.
	Warmup  int
	Measure int
	// StopAt, when positive, halts injection at that cycle (a finite
	// horizon inside the measurement window).
	StopAt sim.Cycle
	// RequestFraction is the 1-flit-request share of generated packets.
	RequestFraction float64
	// Burst, when enabled, applies MMPP-style on/off modulation to every
	// injector (traffic.Burst).
	Burst traffic.Burst
	// HotspotWeights configures the "hotspot" pattern's per-node
	// destination weights (nil = all load on node 0).
	HotspotWeights []float64
	// Flows, when non-empty, replaces the pattern×rate product with an
	// explicit injector list (the adversarial-workload shape).
	Flows []FlowSpec

	// The [workload] table: the workload-class axes. WorkloadModes fans
	// cells out over injection regimes — "open" (the stochastic
	// generators; the default) and "closed" (request–reply clients with
	// a bounded outstanding window and geometric think time, driven by
	// internal/workload). Closed cells additionally fan out over the
	// Outstanding × ThinkTimes axes and use the pattern axis for request
	// destinations; the rate axis does not apply to them (demand is
	// feedback-driven).
	WorkloadModes []string
	Outstanding   []int
	ThinkTimes    []float64
	// RequestFlits/ReplyFlits select the closed-loop transaction shape
	// (0 = the defaults: 1-flit requests, 4-flit replies; setting 4/1
	// models write-shaped traffic whose bandwidth rides the request
	// path).
	RequestFlits int
	ReplyFlits   int
	// Traces is the trace-replay axis: each entry names a recorded
	// binary trace (relative paths resolve against the scenario file's
	// directory) replayed verbatim as the workload of trace × topology ×
	// qos × seed cells. Mutually exclusive with patterns/rates/flows and
	// the mode axes.
	Traces []string
	// baseDir anchors relative trace paths (set by Resolve from the root
	// file layer; empty for in-memory scenarios, which resolve against
	// the process CWD).
	baseDir string

	// The [faults] table: hardware fault schedules and end-to-end
	// recovery (internal/network's fault subsystem). FaultWindows are
	// installed on every cell; RetryTimeouts and MaxRetriesAxis are sweep
	// axes (the grid fans out over retry_timeout × max_retries), and
	// WatchdogCycles arms the no-forward-progress watchdog per cell.
	// Open-loop cells only.
	FaultWindows   []noc.FaultWindow
	RetryTimeouts  []sim.Cycle
	MaxRetriesAxis []int
	WatchdogCycles sim.Cycle

	// QoS parameter overrides; zero values keep the defaults.
	FrameCycles   sim.Cycle
	WindowPackets int
	QuantumFlits  int
	MarginClasses int

	// The [run] table: durable-execution knobs. None of them changes
	// results — they bound and retry the execution of cells, so they stay
	// out of cache keys. Deadline is the per-attempt wall-clock budget of
	// every cell (0 = unlimited); Retries the per-cell failure budget
	// (0 = inherit the runner default of one retry, -1 = no retries —
	// decoded from `retries = 0`); Backoff the base delay before a retry
	// (exponential per extra attempt). Cache asks the sweep to memoize
	// rows through the content-addressed result store (noctool's -cache
	// flag overrides).
	Deadline time.Duration
	Retries  int
	Backoff  time.Duration
	Cache    bool

	// The [telemetry] table: deterministic in-run probes. Display-only —
	// a probed cell's rows are bit-identical to an unprobed cell's, so
	// like [run] the knobs stay out of cache keys (cache-served rows
	// simply carry no timeline; see cache.go).
	Telemetry *Telemetry
}

// Telemetry configures the in-run probe attachment of every visible
// grid cell (internal/telemetry): a Sampler fires every Interval cycles
// and records the selected series. TopFlows bounds how many flows the
// JSON/table emitters print (0 = default 8); Series empty selects all.
type Telemetry struct {
	Interval sim.Cycle
	Series   []string
	TopFlows int
}

// FlowSpec is one explicitly-declared injector.
type FlowSpec struct {
	// Node hosts the injector; Injector is its position (0 = terminal
	// port, 1..7 the MECS row inputs).
	Node     int
	Injector int
	// Rate is the injector's offered load in flits/cycle.
	Rate float64
	// Dest is the fixed destination node (default traffic.HotspotNode).
	Dest int
	// StopAt optionally overrides the scenario-level injection stop.
	StopAt sim.Cycle
	// Role optionally tags the flow "victim" or "aggressor". When any
	// flow is a victim, every result row reports the victims'
	// mean-latency slowdown versus a hidden victim-only reference cell.
	Role string
}

// Load reads a scenario from a .json or .toml file; the result is
// validated and defaulted. Load is a facade over Resolve with a single
// file layer; callers wanting includes-plus-profile-plus-override
// composition build the layer list themselves (cmd/noctool does).
func Load(path string) (*Scenario, error) {
	sc, _, err := Resolve(FileLayer(path))
	return sc, err
}

// Parse decodes scenario bytes in the given format (".json" or ".toml")
// and validates the result: a facade over Resolve with a single
// in-memory blob layer (no include chain, no profile selection).
func Parse(blob []byte, ext string) (*Scenario, error) {
	sc, _, err := Resolve(BlobLayer("", blob, ext))
	return sc, err
}

// Validate checks cross-field consistency and applies defaults for the
// axes left unset (all topologies, PVC, seed 42).
func (sc *Scenario) Validate() error {
	if len(sc.Topologies) == 0 {
		sc.Topologies = topology.Kinds()
	}
	if len(sc.Modes) == 0 {
		sc.Modes = []qos.Mode{qos.PVC}
	}
	if len(sc.Seeds) == 0 {
		sc.Seeds = []uint64{42}
	}
	if sc.Nodes < 2 {
		return fmt.Errorf("scenario %s: need at least 2 nodes, got %d", sc.Name, sc.Nodes)
	}
	if sc.Warmup < 0 || sc.Measure <= 0 {
		return fmt.Errorf("scenario %s: schedule warmup %d / measure %d invalid", sc.Name, sc.Warmup, sc.Measure)
	}
	if sc.RequestFraction < 0 || sc.RequestFraction > 1 {
		return fmt.Errorf("scenario %s: request_fraction %v outside [0,1]", sc.Name, sc.RequestFraction)
	}
	if err := sc.Burst.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if sc.HotspotWeights != nil && !slices.Contains(sc.Patterns, "hotspot") {
		// No cell would read the weights, and silently ignoring them
		// would break the "typos fail loudly" contract.
		return fmt.Errorf("scenario %s: hotspot_weights only shape the hotspot pattern; a scenario with no hotspot on its pattern axis cannot set them", sc.Name)
	}
	if err := sc.validateWorkloadAxes(); err != nil {
		return err
	}
	if err := sc.validateFaults(); err != nil {
		return err
	}
	if err := sc.validateTelemetry(); err != nil {
		return err
	}
	if len(sc.Traces) > 0 {
		// Replay cells carry their complete injection stream; the other
		// workload descriptions cannot coexist with them.
		return nil
	}
	if len(sc.Flows) > 0 {
		if len(sc.Patterns) > 0 || len(sc.Rates) > 0 {
			return fmt.Errorf("scenario %s: flows and pattern/rates are mutually exclusive", sc.Name)
		}
		for i, f := range sc.Flows {
			if f.Node < 0 || f.Node >= sc.Nodes {
				return fmt.Errorf("scenario %s: flows[%d] node %d outside column of %d", sc.Name, i, f.Node, sc.Nodes)
			}
			if f.Injector < 0 || f.Injector >= topology.InjectorsPerNode {
				return fmt.Errorf("scenario %s: flows[%d] injector %d outside [0,%d)", sc.Name, i, f.Injector, topology.InjectorsPerNode)
			}
			if f.Dest < 0 || f.Dest >= sc.Nodes {
				return fmt.Errorf("scenario %s: flows[%d] dest %d outside column of %d", sc.Name, i, f.Dest, sc.Nodes)
			}
			if f.Rate <= 0 || f.Rate > 1 {
				return fmt.Errorf("scenario %s: flows[%d] rate %v outside (0,1]", sc.Name, i, f.Rate)
			}
			switch f.Role {
			case "", "victim", "aggressor":
			default:
				return fmt.Errorf("scenario %s: flows[%d] role %q (want victim or aggressor)", sc.Name, i, f.Role)
			}
		}
	} else {
		if len(sc.Patterns) == 0 {
			sc.Patterns = []string{"uniform"}
		}
		if sc.hasMode("open") {
			if len(sc.Rates) == 0 {
				return fmt.Errorf("scenario %s: empty sweep — no rates and no flows", sc.Name)
			}
		} else if len(sc.Rates) > 0 {
			return fmt.Errorf("scenario %s: rates set but the workload mode axis has no open cells", sc.Name)
		}
		for _, r := range sc.Rates {
			if r <= 0 || r > 1 {
				return fmt.Errorf("scenario %s: rate %v outside (0,1]", sc.Name, r)
			}
		}
		for _, name := range sc.Patterns {
			p, err := sc.pattern(name)
			if err != nil {
				return fmt.Errorf("scenario %s: %w", sc.Name, err)
			}
			// Surface population incompatibilities (non-power-of-two
			// columns under bit permutations, weight-vector mismatches)
			// at load time rather than mid-grid.
			if len(sc.Rates) > 0 {
				if _, err := sc.workload(name, sc.Rates[0]); err != nil {
					return fmt.Errorf("scenario %s: %w", sc.Name, err)
				}
			} else {
				for node := 0; node < sc.Nodes; node++ {
					if _, err := p.DestFor(noc.NodeID(node), sc.Nodes); err != nil {
						return fmt.Errorf("scenario %s: %w", sc.Name, err)
					}
				}
			}
		}
	}
	for _, s := range specsOf(sc) {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", sc.Name, err)
		}
	}
	return nil
}

// rejectOpenOnlyFields errors when open-loop-only shaping fields are set
// in a scenario with no open cells (closed-only mode axis, or the trace
// axis): burst, stop_at and request_fraction only shape the stochastic
// generators, and silently ignoring them would break the "typos fail
// loudly" contract. kind names the workload class for the message.
func (sc *Scenario) rejectOpenOnlyFields(kind string) error {
	if sc.Burst.Enabled() {
		return fmt.Errorf("scenario %s: burst only shapes open-loop injection; a %s scenario cannot set it", sc.Name, kind)
	}
	if sc.StopAt > 0 {
		return fmt.Errorf("scenario %s: stop_at only bounds open-loop injection; a %s scenario cannot set it", sc.Name, kind)
	}
	if sc.RequestFraction != traffic.DefaultRequestFraction {
		return fmt.Errorf("scenario %s: request_fraction only shapes open-loop packet mix; a %s scenario cannot set it (closed cells use request_flits/reply_flits)", sc.Name, kind)
	}
	return nil
}

// hasMode reports whether the workload mode axis includes the given mode.
func (sc *Scenario) hasMode(mode string) bool {
	for _, m := range sc.WorkloadModes {
		if m == mode {
			return true
		}
	}
	return false
}

// validateWorkloadAxes defaults and checks the [workload] table: the mode
// axis (default open-only), the closed-cell axes, and the trace axis's
// exclusivity with every other workload description.
func (sc *Scenario) validateWorkloadAxes() error {
	if len(sc.Traces) > 0 {
		if len(sc.WorkloadModes) > 0 {
			return fmt.Errorf("scenario %s: the trace axis and the workload mode axis are mutually exclusive", sc.Name)
		}
		if len(sc.Patterns) > 0 || len(sc.Rates) > 0 || len(sc.Flows) > 0 {
			return fmt.Errorf("scenario %s: traces carry their complete injection stream; patterns/rates/flows cannot be set with them", sc.Name)
		}
		for _, tr := range sc.Traces {
			if tr == "" {
				return fmt.Errorf("scenario %s: empty trace path", sc.Name)
			}
		}
		if err := sc.rejectOpenOnlyFields("trace"); err != nil {
			return err
		}
		return nil
	}
	if len(sc.WorkloadModes) == 0 {
		sc.WorkloadModes = []string{"open"}
	}
	if !sc.hasMode("open") {
		// No open cells anywhere: the open-loop shaping fields would be
		// silently ignored, so reject them loudly like the other
		// cross-axis conflicts.
		if err := sc.rejectOpenOnlyFields("closed-only"); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, m := range sc.WorkloadModes {
		if m != "open" && m != "closed" {
			return fmt.Errorf("scenario %s: unknown workload mode %q (want open, closed)", sc.Name, m)
		}
		if seen[m] {
			return fmt.Errorf("scenario %s: workload mode %q repeated", sc.Name, m)
		}
		seen[m] = true
	}
	if sc.hasMode("closed") && len(sc.Flows) > 0 {
		return fmt.Errorf("scenario %s: closed-loop cells use the pattern axis; flows cannot be set with them", sc.Name)
	}
	if !sc.hasMode("closed") && (len(sc.Outstanding) > 0 || len(sc.ThinkTimes) > 0) {
		return fmt.Errorf("scenario %s: outstanding/think_time set but the workload mode axis has no closed cells", sc.Name)
	}
	if sc.hasMode("closed") {
		if len(sc.Outstanding) == 0 {
			sc.Outstanding = []int{4}
		}
		if len(sc.ThinkTimes) == 0 {
			sc.ThinkTimes = []float64{0}
		}
		for _, o := range sc.Outstanding {
			if o < 1 {
				return fmt.Errorf("scenario %s: outstanding %d below 1", sc.Name, o)
			}
		}
		for _, th := range sc.ThinkTimes {
			if th < 0 {
				return fmt.Errorf("scenario %s: think_time %v negative", sc.Name, th)
			}
		}
		for _, fl := range []int{sc.RequestFlits, sc.ReplyFlits} {
			if fl != 0 && fl != noc.RequestFlits && fl != noc.ReplyFlits {
				return fmt.Errorf("scenario %s: %d-flit packets not modeled (want %d or %d)",
					sc.Name, fl, noc.RequestFlits, noc.ReplyFlits)
			}
		}
	} else if sc.RequestFlits != 0 || sc.ReplyFlits != 0 {
		return fmt.Errorf("scenario %s: request_flits/reply_flits set but the workload mode axis has no closed cells", sc.Name)
	}
	return nil
}

// validateTelemetry checks the [telemetry] table: the interval is
// required and positive, the series names must be known, and top_flows
// cannot be negative. All knobs are display-only (see cache.go).
func (sc *Scenario) validateTelemetry() error {
	t := sc.Telemetry
	if t == nil {
		return nil
	}
	if t.Interval <= 0 {
		return fmt.Errorf("scenario %s: telemetry interval %d must be positive", sc.Name, t.Interval)
	}
	if t.TopFlows < 0 {
		return fmt.Errorf("scenario %s: negative telemetry top_flows %d", sc.Name, t.TopFlows)
	}
	for _, s := range t.Series {
		if !telemetry.ValidSeries(s) {
			return fmt.Errorf("scenario %s: unknown telemetry series %q (known: %s)",
				sc.Name, s, strings.Join(telemetry.KnownSeries(), ", "))
		}
	}
	return nil
}

// validateFaults defaults and checks the [faults] table: windows against
// the smallest topology on the axis, non-negative recovery axes (defaults
// retry_timeout 0 = recovery off; max_retries 3 when recovery is armed),
// and exclusivity with the workload classes the fault subsystem does not
// model (closed-loop clients, trace replay).
func (sc *Scenario) validateFaults() error {
	if len(sc.RetryTimeouts) == 0 {
		sc.RetryTimeouts = []sim.Cycle{0}
	}
	if len(sc.MaxRetriesAxis) == 0 {
		sc.MaxRetriesAxis = []int{0}
		for _, t := range sc.RetryTimeouts {
			if t > 0 {
				sc.MaxRetriesAxis = []int{3}
				break
			}
		}
	}
	for _, t := range sc.RetryTimeouts {
		if t < 0 {
			return fmt.Errorf("scenario %s: negative retry_timeout %d", sc.Name, t)
		}
	}
	for _, m := range sc.MaxRetriesAxis {
		if m < 0 {
			return fmt.Errorf("scenario %s: negative max_retries %d", sc.Name, m)
		}
	}
	if sc.WatchdogCycles < 0 {
		return fmt.Errorf("scenario %s: negative watchdog_cycles %d", sc.Name, sc.WatchdogCycles)
	}
	if !sc.faultsEnabled() {
		return nil
	}
	if len(sc.Traces) > 0 || sc.hasMode("closed") {
		return fmt.Errorf("scenario %s: the [faults] table only applies to open-loop cells (no traces or closed workload mode)", sc.Name)
	}
	for i, w := range sc.FaultWindows {
		if err := w.Validate(); err != nil {
			return fmt.Errorf("scenario %s: faults window %d: %w", sc.Name, i, err)
		}
		if w.Kind == noc.FaultRouterStall {
			if w.Node >= sc.Nodes {
				return fmt.Errorf("scenario %s: faults window %d stalls node %d outside column of %d", sc.Name, i, w.Node, sc.Nodes)
			}
			continue
		}
		// The port index must exist on every topology of the axis, so the
		// grid cannot fail mid-run on the smallest port count.
		for _, kind := range sc.Topologies {
			if ports := topology.NumPorts(kind, sc.Nodes); w.Port >= ports {
				return fmt.Errorf("scenario %s: faults window %d names port %d, topology %v has %d",
					sc.Name, i, w.Port, kind, ports)
			}
		}
	}
	return nil
}

// faultsEnabled reports whether the scenario schedules faults, arms
// recovery, or arms the watchdog on its cells.
func (sc *Scenario) faultsEnabled() bool {
	if len(sc.FaultWindows) > 0 || sc.WatchdogCycles > 0 {
		return true
	}
	for _, t := range sc.RetryTimeouts {
		if t > 0 {
			return true
		}
	}
	return false
}

// victimFlows lists the flow IDs of flows declared role = "victim".
func (sc *Scenario) victimFlows() []noc.FlowID {
	var out []noc.FlowID
	for _, f := range sc.Flows {
		if f.Role == "victim" {
			out = append(out, traffic.FlowOf(noc.NodeID(f.Node), f.Injector))
		}
	}
	return out
}

// specsOf samples one representative spec set for validation: the first
// pattern at the highest rate (peak burst demand scales with rate), or
// the explicit flows.
func specsOf(sc *Scenario) []traffic.Spec {
	if len(sc.Flows) > 0 {
		return sc.flowWorkload().Specs
	}
	maxRate := 0.0
	for _, r := range sc.Rates {
		if r > maxRate {
			maxRate = r
		}
	}
	w, err := sc.workload(sc.Patterns[0], maxRate)
	if err != nil {
		return nil // already reported by Validate's pattern probe
	}
	return w.Specs
}

// pattern resolves a pattern name, threading the scenario's hotspot
// weights into the hotspot pattern.
func (sc *Scenario) pattern(name string) (traffic.Pattern, error) {
	if name == "hotspot" && sc.HotspotWeights != nil {
		return traffic.HotspotTraffic(sc.HotspotWeights), nil
	}
	return traffic.PatternByName(name)
}

// workload builds the synthetic workload of one (pattern, rate) point.
func (sc *Scenario) workload(patternName string, rate float64) (traffic.Workload, error) {
	p, err := sc.pattern(patternName)
	if err != nil {
		return traffic.Workload{}, err
	}
	w, err := traffic.Synthetic(p, sc.Nodes, rate, sc.Burst)
	if err != nil {
		return traffic.Workload{}, err
	}
	if sc.RequestFraction != traffic.DefaultRequestFraction {
		for i := range w.Specs {
			w.Specs[i].RequestFraction = sc.RequestFraction
		}
	}
	if sc.StopAt > 0 {
		w = w.WithStop(sc.StopAt)
	}
	return w, nil
}

// flowWorkload builds the workload of an explicit-flows scenario.
func (sc *Scenario) flowWorkload() traffic.Workload { return sc.flowWorkloadOf(sc.Flows) }

// victimWorkload builds the victim-only workload of the hidden reference
// cells the victim-slowdown metric compares against. The flow population
// (Nodes) is unchanged, so victim flow IDs and QoS tables line up with
// the full scenario's.
func (sc *Scenario) victimWorkload() traffic.Workload {
	var victims []FlowSpec
	for _, f := range sc.Flows {
		if f.Role == "victim" {
			victims = append(victims, f)
		}
	}
	return sc.flowWorkloadOf(victims)
}

func (sc *Scenario) flowWorkloadOf(flows []FlowSpec) traffic.Workload {
	w := traffic.Workload{Name: sc.Name, Nodes: sc.Nodes}
	for _, f := range flows {
		stop := f.StopAt
		if stop == 0 {
			stop = sc.StopAt
		}
		w.Specs = append(w.Specs, traffic.Spec{
			Flow:            traffic.FlowOf(noc.NodeID(f.Node), f.Injector),
			Node:            noc.NodeID(f.Node),
			Rate:            f.Rate,
			RequestFraction: sc.RequestFraction,
			Dest:            traffic.FixedDest(noc.NodeID(f.Dest)),
			Burst:           sc.Burst,
			StopAt:          stop,
		})
	}
	return w
}

// qosConfig assembles the QoS configuration every cell of the grid
// shares: one equal-share Rates vector over the column's flow
// population. Each cell sets its point's Mode on its own copy.
func (sc *Scenario) qosConfig() qos.Config {
	cfg := qos.DefaultConfig(sc.Nodes * topology.InjectorsPerNode)
	if sc.FrameCycles > 0 {
		cfg.FrameCycles = sc.FrameCycles
	}
	if sc.WindowPackets > 0 {
		cfg.WindowPackets = sc.WindowPackets
	}
	if sc.QuantumFlits > 0 {
		cfg.QuantumFlits = sc.QuantumFlits
	}
	if sc.MarginClasses > 0 {
		cfg.MarginClasses = sc.MarginClasses
	}
	return cfg
}

// topologyByName maps a scenario topology name ("all" fans out;
// single names resolve through topology.KindByName).
func topologyByName(name string) ([]topology.Kind, error) {
	if name == "all" {
		return topology.Kinds(), nil
	}
	k, err := topology.KindByName(name)
	if err != nil {
		return nil, err
	}
	return []topology.Kind{k}, nil
}

// modeByName maps a scenario QoS name ("all" fans out; single names
// resolve through qos.ModeByName).
func modeByName(name string) ([]qos.Mode, error) {
	if name == "all" {
		return qos.Modes(), nil
	}
	m, err := qos.ModeByName(name)
	if err != nil {
		return nil, err
	}
	return []qos.Mode{m}, nil
}
