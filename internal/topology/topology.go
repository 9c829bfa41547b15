// Package topology defines the five shared-region interconnects evaluated
// in the paper — mesh x1, mesh x2, mesh x4, MECS, and Destination
// Partitioned Subnets (DPS) — in two complementary forms:
//
//   - a behavioural Graph used by the cycle simulator: output ports,
//     input-buffer VC pools, and per-(source, destination) paths made of
//     Legs with the exact pipeline and wire latencies of Table 1;
//   - a Structure used by the physical models: port counts, buffer
//     capacities, crossbar geometry and flow-state provisioning, from
//     which router area (Figure 3) and per-hop energy (Figure 7) follow.
//
// The shared region is one column of the chip's 8x8 node grid. Each column
// node hosts one shared-resource terminal (e.g. a memory controller) plus
// seven MECS row inputs that deliver traffic from the node's row; all
// fifteen per-node injectors are QoS flows.
package topology

import (
	"fmt"
	"strings"
)

// Kind enumerates the evaluated shared-region topologies.
type Kind uint8

const (
	// MeshX1 is the baseline 1-ary mesh: one channel per direction.
	MeshX1 Kind = iota
	// MeshX2 replicates mesh channels twice, keeping one monolithic
	// crossbar per node (Section 3.2).
	MeshX2
	// MeshX4 replicates mesh channels four times, equalizing bisection
	// bandwidth with MECS and DPS.
	MeshX4
	// MECS uses point-to-multipoint express channels: each node drives
	// one channel per direction that drops off at every node it passes.
	MECS
	// DPS — Destination Partitioned Subnets, the paper's new topology —
	// dedicates a light-weight subnetwork to each destination node;
	// intermediate hops are 2:1 muxes with single-cycle traversal.
	DPS
)

// Kinds lists all evaluated topologies in the paper's presentation order.
func Kinds() []Kind { return []Kind{MeshX1, MeshX2, MeshX4, MECS, DPS} }

// KindByName resolves a kind from its String name — the single
// name-to-enum mapping shared by scenario files and trace headers.
func KindByName(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("topology: unknown kind %q (want %s)", name, kindNames())
}

func kindNames() string {
	var names []string
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

func (k Kind) String() string {
	switch k {
	case MeshX1:
		return "mesh_x1"
	case MeshX2:
		return "mesh_x2"
	case MeshX4:
		return "mesh_x4"
	case MECS:
		return "mecs"
	case DPS:
		return "dps"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Replication is the channel replication degree (mesh xK has K parallel
// channels per direction; MECS and DPS are unreplicated).
func (k Kind) Replication() int {
	switch k {
	case MeshX2:
		return 2
	case MeshX4:
		return 4
	default:
		return 1
	}
}

// Table 1 provisioning constants.
const (
	// ColumnNodes is the number of nodes in the shared-region column of
	// the 8x8 grid.
	ColumnNodes = 8
	// RowInputsPerNode is the number of MECS row channels feeding each
	// column node (seven other nodes in the row).
	RowInputsPerNode = 7
	// InjectorsPerNode counts the QoS flows sourced at each column node:
	// the shared-resource terminal plus the seven row inputs.
	InjectorsPerNode = 1 + RowInputsPerNode
	// MeshVCs, MECSVCs and DPSVCs are the virtual channels per network
	// input port of each topology, sized to cover round-trip credit
	// latency (Table 1).
	MeshVCs = 6
	MECSVCs = 14
	DPSVCs  = 5
	// EjectionVCs is common to all topologies.
	EjectionVCs = 2
)

// Pipeline latencies in cycles (Table 1). Look-ahead routing and priority
// reuse remove the source route/priority-computation stage from the
// critical path, so it does not appear here.
const (
	// MeshRouterDelay is the 2-stage (VA, XT) mesh pipeline, also used
	// by DPS source and destination routers.
	MeshRouterDelay = 2
	// MECSRouterDelay is the 3-stage (VA-local, VA-global, XT) MECS
	// pipeline: the large port and VC count costs an extra arbitration
	// cycle.
	MECSRouterDelay = 3
	// DPSIntermediateDelay is the single-cycle traversal of a DPS
	// intermediate hop: a 2:1 mux with no crossbar, no routing and no
	// flow-state access.
	DPSIntermediateDelay = 1
)

// RouterDelay returns the pipeline depth of a router traversal of the given
// kind of hop.
func (k Kind) RouterDelay(intermediate bool) int {
	switch k {
	case MECS:
		return MECSRouterDelay
	case DPS:
		if intermediate {
			return DPSIntermediateDelay
		}
		return MeshRouterDelay
	default:
		return MeshRouterDelay
	}
}

// BisectionChannels returns the number of 16-byte channels crossing the
// column's bisection in one direction. MECS, DPS and mesh x4 are equal by
// construction; mesh x1 and x2 trade bandwidth for router cost.
func (k Kind) BisectionChannels(nodes int) int {
	switch k {
	case MECS, DPS:
		// One channel per node on each side of the cut reaches across
		// it (an express channel for MECS, a destination subnet for
		// DPS).
		return nodes / 2
	default:
		return k.Replication()
	}
}
