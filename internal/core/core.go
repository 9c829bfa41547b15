// Package core composes the paper's contribution into one programmable
// system: a highly integrated CMP whose shared resources are segregated
// into QoS-protected columns (internal/chip), reached over dedicated MECS
// row channels, with a cycle-accurate simulator of the protected region
// (internal/network) and the chip-wide cost accounting that motivates the
// whole design — QoS hardware in 8 routers instead of 64.
//
// A downstream user drives it like an OS/hypervisor would (Section 2.2):
// allocate convex domains for VMs, co-schedule threads, assign bandwidth
// shares, then run memory traffic through the shared region and observe
// guarantees.
package core

import (
	"fmt"

	"tanoq/internal/chip"
	"tanoq/internal/network"
	"tanoq/internal/noc"
	"tanoq/internal/physical"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// Config describes a topology-aware QoS system.
type Config struct {
	// Chip geometry; defaults to the paper's 256-tile, 8x8-node target.
	Chip chip.Config
	// RegionKind is the interconnect inside the shared column. The
	// paper's recommendation after the evaluation is DPS.
	RegionKind topology.Kind
	// FrameCycles is the PVC frame (guarantee granularity).
	FrameCycles sim.Cycle
	// Seed drives all stochastic traffic.
	Seed uint64
}

// DefaultConfig returns the paper's configuration with a DPS shared
// region.
func DefaultConfig() Config {
	return Config{
		Chip:        chip.DefaultConfig(),
		RegionKind:  topology.DPS,
		FrameCycles: qos.DefaultFrameCycles,
		Seed:        1,
	}
}

// System is a configured topology-aware CMP.
type System struct {
	cfg  Config
	chip *chip.Chip
	col  int // the shared column used for memory traffic
}

// NewSystem builds a system; the chip must have at least one shared
// column.
func NewSystem(cfg Config) (*System, error) {
	if cfg.RegionKind > topology.DPS {
		return nil, fmt.Errorf("core: unknown region topology %v", cfg.RegionKind)
	}
	if cfg.FrameCycles <= 0 {
		cfg.FrameCycles = qos.DefaultFrameCycles
	}
	c, err := chip.New(cfg.Chip)
	if err != nil {
		return nil, err
	}
	if len(cfg.Chip.SharedCols) == 0 {
		return nil, fmt.Errorf("core: topology-aware QoS needs at least one shared column")
	}
	return &System{cfg: cfg, chip: c, col: cfg.Chip.SharedCols[0]}, nil
}

// MustNewSystem panics on configuration errors.
func MustNewSystem(cfg Config) *System {
	s, err := NewSystem(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// Chip exposes the underlying chip model.
func (s *System) Chip() *chip.Chip { return s.chip }

// AllocateVM finds and allocates a convex domain of at least nodeCount
// nodes.
func (s *System) AllocateVM(vm chip.VMID, nodeCount int) (*chip.Domain, error) {
	return s.chip.AutoAllocate(vm, nodeCount)
}

// ScheduleThreads places a VM's threads on its domain's core tiles.
func (s *System) ScheduleThreads(vm chip.VMID, threads []int) error {
	return s.chip.ScheduleThreads(vm, threads)
}

// MemoryLoad describes one VM's memory traffic demand.
type MemoryLoad struct {
	VM chip.VMID
	// Share is the VM's assigned fraction of shared-region bandwidth
	// (the SLA the OS programs into the QoS routers).
	Share float64
	// Offered is the VM's actual offered load in flits/cycle across its
	// whole domain (may exceed or undercut the share; QoS clips it).
	Offered float64
}

// BuildSharedRegion assembles the cycle-accurate shared-column network for
// the given per-VM memory loads: every allocated node streams
// address-interleaved requests at the column's memory controllers, entering
// the column as the row-input injector the chip geometry dictates.
func (s *System) BuildSharedRegion(mode qos.Mode, loads []MemoryLoad) (*network.Network, error) {
	shares := map[chip.VMID]float64{}
	for _, l := range loads {
		shares[l.VM] = l.Share
	}
	rates, err := s.chip.VMRates(s.col, shares)
	if err != nil {
		return nil, err
	}
	nodes := s.cfg.Chip.Height
	w := traffic.Workload{Name: "memory", Nodes: nodes}
	for _, l := range loads {
		d := s.chip.Domain(l.VM)
		if d == nil {
			return nil, fmt.Errorf("core: VM %d has no domain", l.VM)
		}
		if l.Offered < 0 {
			return nil, fmt.Errorf("core: VM %d offered load %v negative", l.VM, l.Offered)
		}
		perNode := l.Offered / float64(len(d.Nodes))
		for _, at := range d.Nodes {
			node, inj, err := s.chip.ColumnInjector(at, s.col)
			if err != nil {
				return nil, err
			}
			w.Specs = append(w.Specs, traffic.Spec{
				Flow:            noc.FlowID(int(node)*topology.InjectorsPerNode + inj),
				Node:            node,
				Rate:            perNode,
				RequestFraction: traffic.DefaultRequestFraction,
				// Address-interleaved across the column's MCs.
				Dest: traffic.DestFunc(func(r *sim.RNG) noc.NodeID {
					return noc.NodeID(r.Intn(nodes))
				}),
			})
		}
	}
	qcfg := qos.Config{
		Mode:          mode,
		FrameCycles:   s.cfg.FrameCycles,
		Rates:         rates,
		WindowPackets: qos.DefaultWindowPackets,
		AckDelay:      2,
	}
	return network.New(network.Config{
		Kind:     s.cfg.RegionKind,
		Nodes:    nodes,
		QoS:      qcfg,
		Workload: w,
		Seed:     s.cfg.Seed,
	})
}

// VMThroughput aggregates delivered shared-region flits per VM from a
// finished simulation.
func (s *System) VMThroughput(n *network.Network, loads []MemoryLoad) (map[chip.VMID]int64, error) {
	out := map[chip.VMID]int64{}
	byFlow := n.Stats().FlitsByFlow()
	for _, l := range loads {
		d := s.chip.Domain(l.VM)
		if d == nil {
			return nil, fmt.Errorf("core: VM %d has no domain", l.VM)
		}
		var total int64
		for _, at := range d.Nodes {
			f, err := s.chip.ColumnFlow(at, s.col)
			if err != nil {
				return nil, err
			}
			total += byFlow[f]
		}
		out[l.VM] = total
	}
	return out, nil
}

// VerifyInvariants audits the three OS-contract properties over the
// current allocation state: co-scheduling, convex-domain traffic
// containment, and cross-VM isolation on every unprotected channel for
// the canonical traffic set (all intra-domain pairs, every node's memory
// traffic, and all-pairs inter-VM transfers through the shared column).
func (s *System) VerifyInvariants() error {
	if err := s.chip.VerifyCoScheduling(); err != nil {
		return err
	}
	var flows []chip.Flow
	doms := s.chip.Domains()
	for _, d := range doms {
		if err := s.chip.DomainTrafficContained(d.VM); err != nil {
			return err
		}
		for _, a := range d.Nodes {
			for _, b := range d.Nodes {
				if a != b {
					flows = append(flows, chip.Flow{VM: d.VM, Route: chip.DirectRoute(a, b)})
				}
			}
			for y := 0; y < s.cfg.Chip.Height; y++ {
				r, err := s.chip.RouteToShared(a, s.col, y)
				if err != nil {
					return err
				}
				flows = append(flows, chip.Flow{VM: d.VM, Route: r})
			}
		}
	}
	for _, da := range doms {
		for _, db := range doms {
			if da.VM == db.VM {
				continue
			}
			r, err := s.chip.RouteInterVM(da.Nodes[0], db.Nodes[len(db.Nodes)-1])
			if err != nil {
				return err
			}
			flows = append(flows, chip.Flow{VM: da.VM, Route: r})
		}
	}
	if v := s.chip.VerifyIsolation(flows); len(v) != 0 {
		return v[0]
	}
	return nil
}

// CostReport quantifies the headline saving of the topology-aware
// approach: hardware QoS exists only in the shared columns instead of at
// every router on the chip.
type CostReport struct {
	RoutersTotal      int
	RoutersWithQoS    int
	QoSAreaPerRouter  float64 // mm² of flow state + preemption/ACK logic
	BaselineQoSArea   float64 // QoS at every router (Figure 1(a))
	TopoAwareQoSArea  float64 // QoS only in shared columns (Figure 1(b))
	SavedArea         float64
	SavedAreaFraction float64
}

// Cost evaluates the report for the configured shared-region topology.
func (s *System) Cost() CostReport {
	st := topology.StructureOf(s.cfg.RegionKind, s.cfg.Chip.Height,
		s.cfg.Chip.Height*topology.InjectorsPerNode)
	area := physical.RouterArea(st)
	perRouter := area.Total() * physical.QoSLogicAreaShare(st)
	total := s.cfg.Chip.Width * s.cfg.Chip.Height
	withQoS := len(s.cfg.Chip.SharedCols) * s.cfg.Chip.Height
	r := CostReport{
		RoutersTotal:     total,
		RoutersWithQoS:   withQoS,
		QoSAreaPerRouter: perRouter,
		BaselineQoSArea:  float64(total) * perRouter,
		TopoAwareQoSArea: float64(withQoS) * perRouter,
	}
	r.SavedArea = r.BaselineQoSArea - r.TopoAwareQoSArea
	if r.BaselineQoSArea > 0 {
		r.SavedAreaFraction = r.SavedArea / r.BaselineQoSArea
	}
	return r
}
