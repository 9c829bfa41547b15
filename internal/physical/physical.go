// Package physical provides the analytical area and energy models behind
// Figures 3 and 7 of the paper. The paper used Orion 2.0 (crossbars,
// links) and CACTI 6.0 (SRAM buffers and flow-state arrays) at 32 nm and
// 0.9 V; this package rebuilds the same structural drivers in closed form:
//
//   - SRAM area/energy proportional to capacity with small-array periphery
//     overhead (input buffers and flow-state tables);
//   - crossbar area proportional to the product of input and output port
//     spans (each port is a 128-bit channel); crossbar traversal energy
//     proportional to the switched line length, including the long input
//     lines that feed a MECS router's switch from buffers spread along its
//     express channels;
//   - flow-table query/update energy per non-intermediate traversal.
//
// Absolute mm² and nJ values are calibration constants; every comparison
// the paper draws (which topology is biggest/smallest, who wins per hop
// type and on multi-hop routes) comes from the structural inputs in
// topology.Structure.
package physical

import "tanoq/internal/topology"

// Process and calibration constants (32 nm, 0.9 V).
const (
	// BufferBitArea is SRAM input-buffer area per bit in mm², dominated
	// by periphery at NoC-router array sizes.
	BufferBitArea = 1.2e-6
	// FlowStateBitArea is denser register-file storage for the flow
	// tables.
	FlowStateBitArea = 0.6e-6
	// XbarCrosspointArea is the area of one (128-bit x 128-bit)
	// crosspoint tile: (width x wire pitch)^2.
	XbarCrosspointArea = 4.19e-4

	// Per-flit energies in nJ.
	bufferBaseEnergy = 0.9  // write+read of a small array
	bufferVCEnergy   = 0.15 // bit/word-line growth per additional VC
	xbarPortEnergy   = 0.12 // per summed crossbar port
	xbarLineEnergy   = 0.45 // per tile of input-line span
	flowQueryEnergy  = 0.35 // flow-table query+update, base
	flowScaleEnergy  = 0.15 // growth at 64 tracked flows
	flowScaleFlows   = 64.0
	dpsMuxEnergy     = 0.15 // the 2:1 mux of a DPS intermediate hop
)

// AreaBreakdown is a router's area by component, in mm² (Figure 3's
// stacked bars).
type AreaBreakdown struct {
	RowBuffers float64 // identical across topologies (the dotted line)
	ColBuffers float64
	Crossbar   float64
	FlowState  float64
}

// Total returns the full router area overhead.
func (a AreaBreakdown) Total() float64 {
	return a.RowBuffers + a.ColBuffers + a.Crossbar + a.FlowState
}

// RouterArea evaluates the area model for one shared-region router.
func RouterArea(s topology.Structure) AreaBreakdown {
	return AreaBreakdown{
		RowBuffers: float64(s.RowBufferBits()) * BufferBitArea,
		ColBuffers: float64(s.ColBufferBits()) * BufferBitArea,
		Crossbar:   float64(s.XbarIn*s.XbarOut) * XbarCrosspointArea,
		FlowState:  float64(s.FlowStateBits()) * FlowStateBitArea,
	}
}

// HopType classifies a router traversal for the energy model (Figure 7's
// groups).
type HopType uint8

const (
	HopSource HopType = iota
	HopIntermediate
	HopDest
)

func (h HopType) String() string {
	switch h {
	case HopSource:
		return "src"
	case HopIntermediate:
		return "intermediate"
	case HopDest:
		return "dest"
	default:
		return "hop"
	}
}

// EnergyBreakdown is per-flit router energy by component, in nJ.
type EnergyBreakdown struct {
	Buffers   float64
	Crossbar  float64
	FlowTable float64
}

// Total returns the per-flit hop energy.
func (e EnergyBreakdown) Total() float64 { return e.Buffers + e.Crossbar + e.FlowTable }

// add accumulates component-wise.
func (e EnergyBreakdown) add(o EnergyBreakdown) EnergyBreakdown {
	return EnergyBreakdown{
		Buffers:   e.Buffers + o.Buffers,
		Crossbar:  e.Crossbar + o.Crossbar,
		FlowTable: e.FlowTable + o.FlowTable,
	}
}

// bufferEnergy is the write+read cost of parking a flit in an input
// buffer, growing with the VC count (longer bit/word lines).
func bufferEnergy(vcs int) float64 {
	return bufferBaseEnergy + bufferVCEnergy*float64(vcs)
}

// HopEnergy evaluates the per-flit energy of one router traversal of the
// given type.
//
// The asymmetries that drive Figure 7 fall out of the structure:
//   - MECS pays for large (14-VC) buffers and for input lines that run
//     from drop-off buffers along the express channel into the switch —
//     the most energy-hungry switch stage of the study — but has no
//     intermediate hops at all;
//   - DPS intermediate hops skip the crossbar and the flow table
//     entirely: a buffer pass plus a 2:1 mux;
//   - meshes pay the full buffer+crossbar+table toll at every hop.
func HopEnergy(s topology.Structure, h HopType) EnergyBreakdown {
	buf := bufferEnergy(s.ColVCsPerIn)
	xbar := xbarPortEnergy*float64(s.XbarIn+s.XbarOut) + xbarLineEnergy*s.XbarInputLineTiles
	flow := flowQueryEnergy + flowScaleEnergy*float64(s.FlowTableFlows)/flowScaleFlows

	if s.Kind == topology.DPS && h == HopIntermediate {
		return EnergyBreakdown{Buffers: buf, Crossbar: dpsMuxEnergy}
	}
	return EnergyBreakdown{Buffers: buf, Crossbar: xbar, FlowTable: flow}
}

// RouteEnergy evaluates the per-flit router energy of a transfer crossing
// the given mesh-equivalent distance (Figure 7's "3 hops" bars use
// distance 3, the average on uniform random traffic).
func RouteEnergy(s topology.Structure, distance int) EnergyBreakdown {
	if distance < 0 {
		panic("physical: negative distance")
	}
	e := HopEnergy(s, HopSource)
	if distance == 0 {
		return e
	}
	switch s.Kind {
	case topology.MECS:
		// Express channels bypass intermediate routers entirely.
	default:
		for i := 0; i < distance-1; i++ {
			e = e.add(HopEnergy(s, HopIntermediate))
		}
	}
	return e.add(HopEnergy(s, HopDest))
}

// QoSLogicAreaShare estimates the fraction of a router's area that exists
// only for QoS support: the flow-state tables plus the preemption/ACK
// machinery (modelled as a fixed fraction of the flow-state cost, per the
// PVC paper's observation that the ACK network is low-bandwidth and
// low-complexity). Used by the chip-level cost accounting: the
// topology-aware architecture pays this only in the shared columns.
func QoSLogicAreaShare(s topology.Structure) float64 {
	a := RouterArea(s)
	qos := a.FlowState * 1.5 // tables + preemption logic + ACK interface
	return qos / a.Total()
}
