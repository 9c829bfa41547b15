package topology

import (
	"fmt"

	"tanoq/internal/noc"
)

// PortID indexes an output port in a Graph. An output port is the unit of
// link arbitration: one winner per allocation, flits cross it at one per
// cycle.
type PortID int

// BufID indexes an input buffer (a pool of virtual channels) in a Graph.
type BufID int

// PortSpec describes one contended output resource.
type PortSpec struct {
	Node int
	Name string
}

// BufSpec describes one input buffer: a VC pool at some node.
type BufSpec struct {
	Node int
	Name string
	// VCs is the pool size; one of them is reserved for rate-compliant
	// traffic when Reserved is true (network ports only, per Table 1).
	VCs      int
	Reserved bool
	// Ejection marks the terminal-interface buffer whose tail arrival
	// completes delivery.
	Ejection bool
}

// Leg is one hop of a packet's path: arbitration for Out at Node, then a
// transfer into buffer In after RouterDelay pipeline cycles plus WireDelay
// cycles of channel flight.
type Leg struct {
	// Node is where the arbitration for this leg happens.
	Node int
	// Out is the contended output resource.
	Out PortID
	// In is the downstream buffer that must grant a VC.
	In BufID
	// WireDelay is the channel flight time in cycles (|i-j| for a MECS
	// express channel, 1 for adjacent-router links, 0 for ejection).
	WireDelay int
	// RouterDelay is the pipeline depth charged before the head flit
	// reaches the channel.
	RouterDelay int
	// Intermediate marks a DPS mux hop: no flow-state access, the
	// packet's carried priority is reused.
	Intermediate bool
	// Final marks the ejection leg; tail arrival into In is delivery.
	Final bool
	// HopWeight is the mesh-equivalent hop count of this leg, used to
	// normalize wasted-hop accounting across topologies (Section 5.3):
	// a MECS express leg spanning d tiles counts as d mesh hops.
	HopWeight int
}

// Graph is the behavioural description of one shared-region column
// topology: its ports, buffers and all-pairs paths.
type Graph struct {
	Kind  Kind
	Nodes int

	Ports []PortSpec
	Bufs  []BufSpec
	// Feeder[b] is the one output port that allocates VCs in buffer b:
	// every Leg with In == b has Out == Feeder[b] (NewGraph panics
	// otherwise). The engine's per-port arbitration epoch rests on it.
	Feeder []PortID

	termPort []PortID // per node: terminal (ejection) output port
	ejBuf    []BufID  // per node: ejection buffer

	// paths[src][dst][replica] is the precomputed leg sequence.
	paths [][][][]Leg
}

// NewGraph builds the column graph for a topology over the given number of
// nodes (ColumnNodes in the paper's configuration; smaller values are used
// in tests).
func NewGraph(kind Kind, nodes int) *Graph {
	if nodes < 2 {
		panic(fmt.Sprintf("topology: need at least 2 nodes, got %d", nodes))
	}
	g := &Graph{Kind: kind, Nodes: nodes}
	g.buildCommon()
	switch kind {
	case MeshX1, MeshX2, MeshX4:
		g.buildMesh(kind.Replication())
	case MECS:
		g.buildMECS()
	case DPS:
		g.buildDPS()
	default:
		panic(fmt.Sprintf("topology: unknown kind %v", kind))
	}
	g.buildFeeders()
	return g
}

// buildFeeders derives Feeder from the path table.
func (g *Graph) buildFeeders() {
	g.Feeder = make([]PortID, len(g.Bufs))
	for b := range g.Feeder {
		g.Feeder[b] = -1
	}
	for _, row := range g.paths {
		for _, replicas := range row {
			for _, legs := range replicas {
				for _, leg := range legs {
					if f := g.Feeder[leg.In]; f >= 0 && f != leg.Out {
						panic(fmt.Sprintf("topology: buffer %s fed by ports %s and %s", g.Bufs[leg.In].Name, g.Ports[f].Name, g.Ports[leg.Out].Name))
					}
					g.Feeder[leg.In] = leg.Out
				}
			}
		}
	}
}

// NumReplicas returns how many parallel channel sets a source can spread
// packets over (mesh xK replication; 1 elsewhere).
func (g *Graph) NumReplicas() int { return g.Kind.Replication() }

// NumPorts returns the number of output ports NewGraph(kind, nodes) creates,
// in O(1) and without building the graph: n terminal ports plus the
// topology's channel ports. Fault-schedule validation uses it to range-check
// port ids cheaply. Returns 0 for configurations NewGraph would reject.
func NumPorts(kind Kind, nodes int) int {
	if nodes < 2 {
		return 0
	}
	switch kind {
	case MeshX1, MeshX2, MeshX4:
		// Per interior direction, Replication() channels out of each of
		// the n-1 upstream nodes.
		return nodes + 2*kind.Replication()*(nodes-1)
	case MECS:
		// One express channel per direction per non-edge endpoint.
		return nodes + 2*(nodes-1)
	case DPS:
		// Subnet d has an output at every node but d.
		return nodes + nodes*(nodes-1)
	default:
		return 0
	}
}

// Path returns the leg sequence from src to dst using the given replica
// (ignored by unreplicated topologies). The returned slice is shared and
// must not be mutated.
func (g *Graph) Path(src, dst noc.NodeID, replica int) []Leg {
	r := replica % g.NumReplicas()
	return g.paths[src][dst][r]
}

// Distance returns the mesh-equivalent hop distance between two nodes.
func Distance(a, b noc.NodeID) int {
	d := int(a) - int(b)
	if d < 0 {
		d = -d
	}
	return d
}

func (g *Graph) addPort(node int, name string) PortID {
	g.Ports = append(g.Ports, PortSpec{Node: node, Name: name})
	return PortID(len(g.Ports) - 1)
}

func (g *Graph) addBuf(node int, name string, vcs int, reserved, ejection bool) BufID {
	g.Bufs = append(g.Bufs, BufSpec{Node: node, Name: name, VCs: vcs, Reserved: reserved, Ejection: ejection})
	return BufID(len(g.Bufs) - 1)
}

// buildCommon creates the per-node terminal port and ejection buffer shared
// by all topologies, and the path table skeleton.
func (g *Graph) buildCommon() {
	n := g.Nodes
	g.termPort = make([]PortID, n)
	g.ejBuf = make([]BufID, n)
	for i := 0; i < n; i++ {
		g.termPort[i] = g.addPort(i, fmt.Sprintf("n%d.term", i))
		g.ejBuf[i] = g.addBuf(i, fmt.Sprintf("n%d.ej", i), EjectionVCs, false, true)
	}
	g.paths = make([][][][]Leg, n)
	for s := range g.paths {
		g.paths[s] = make([][][]Leg, n)
		for d := range g.paths[s] {
			g.paths[s][d] = make([][]Leg, g.NumReplicas())
		}
	}
}

// ejectionLeg builds the final leg: arbitration for the destination's
// terminal port, delivering into the ejection buffer.
func (g *Graph) ejectionLeg(dst int) Leg {
	return Leg{
		Node:        dst,
		Out:         g.termPort[dst],
		In:          g.ejBuf[dst],
		WireDelay:   0,
		RouterDelay: g.Kind.RouterDelay(false),
		Final:       true,
		HopWeight:   0,
	}
}

// buildMesh wires a k-replicated bidirectional chain: per node, k channels
// north and k channels south, each terminating in a 6-VC input buffer at
// the adjacent node. DOR on a single dimension degenerates to "walk the
// chain"; each hop is a full 2-stage router traversal.
func (g *Graph) buildMesh(k int) {
	n := g.Nodes
	// out[node][dir][replica]: dir 0 = toward smaller ids ("north"),
	// dir 1 = toward larger ids ("south").
	out := make([][2][]PortID, n)
	in := make([][2][]BufID, n) // in[node][dirOfTravel][replica]: buffer receiving traffic moving in dir
	for i := 0; i < n; i++ {
		for r := 0; r < k; r++ {
			if i > 0 {
				out[i][0] = append(out[i][0], g.addPort(i, fmt.Sprintf("n%d.N%d", i, r)))
				in[i-1][0] = append(in[i-1][0], g.addBuf(i-1, fmt.Sprintf("n%d.inN%d", i-1, r), MeshVCs, true, false))
			}
			if i < n-1 {
				out[i][1] = append(out[i][1], g.addPort(i, fmt.Sprintf("n%d.S%d", i, r)))
				in[i+1][1] = append(in[i+1][1], g.addBuf(i+1, fmt.Sprintf("n%d.inS%d", i+1, r), MeshVCs, true, false))
			}
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			for r := 0; r < k; r++ {
				var legs []Leg
				dir, step := 1, 1
				if d < s {
					dir, step = 0, -1
				}
				for u := s; u != d; u += step {
					legs = append(legs, Leg{
						Node:        u,
						Out:         out[u][dir][r],
						In:          in[u+step][dir][r],
						WireDelay:   noc.WireDelay,
						RouterDelay: MeshRouterDelay,
						HopWeight:   1,
					})
				}
				legs = append(legs, g.ejectionLeg(d))
				g.paths[s][d][r] = legs
			}
		}
	}
}

// buildMECS wires point-to-multipoint express channels: each node drives
// one channel per direction; every other node in that direction has a
// dedicated 14-VC input buffer where the channel drops off. A transfer is
// a single express leg whose wire delay is the tile distance.
func (g *Graph) buildMECS() {
	n := g.Nodes
	out := make([][2]PortID, n)
	in := make([][]BufID, n) // in[dst][src]
	for i := 0; i < n; i++ {
		in[i] = make([]BufID, n)
		for j := range in[i] {
			in[i][j] = -1
		}
	}
	for i := 0; i < n; i++ {
		if i > 0 {
			out[i][0] = g.addPort(i, fmt.Sprintf("n%d.N", i))
		}
		if i < n-1 {
			out[i][1] = g.addPort(i, fmt.Sprintf("n%d.S", i))
		}
	}
	for d := 0; d < n; d++ {
		for s := 0; s < n; s++ {
			if s == d {
				continue
			}
			in[d][s] = g.addBuf(d, fmt.Sprintf("n%d.in<-%d", d, s), MECSVCs, true, false)
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			var legs []Leg
			if s != d {
				dir := 1
				if d < s {
					dir = 0
				}
				legs = append(legs, Leg{
					Node:        s,
					Out:         out[s][dir],
					In:          in[d][s],
					WireDelay:   Distance(noc.NodeID(s), noc.NodeID(d)) * noc.WireDelay,
					RouterDelay: MECSRouterDelay,
					HopWeight:   Distance(noc.NodeID(s), noc.NodeID(d)),
				})
			}
			legs = append(legs, g.ejectionLeg(d))
			g.paths[s][d][0] = legs
		}
	}
}

// buildDPS wires one dedicated subnetwork per destination node. Subnet d
// is a pair of chains converging on d; at every non-destination node the
// subnet has a single output (a 2:1 mux merging through traffic with local
// injections) and a 5-VC input buffer. Packets are switched only at the
// source (crossbar into the subnet) and at the destination; intermediate
// traversals take a single cycle.
func (g *Graph) buildDPS() {
	n := g.Nodes
	// out[u][d]: node u's output port on subnet d (toward d). Defined
	// for every u != d.
	out := make([][]PortID, n)
	// in[v][d]: the subnet-d input buffer at node v receiving traffic
	// moving toward d. Defined for every v that subnet-d traffic can
	// arrive at: all v on the chain, including two buffers at v == d
	// (one per side), stored as inAtDest.
	in := make([][]BufID, n)
	inAtDest := make([][2]BufID, n) // [d][side]: 0 = from north (v-1), 1 = from south (v+1)
	for u := 0; u < n; u++ {
		out[u] = make([]PortID, n)
		in[u] = make([]BufID, n)
		for d := range out[u] {
			out[u][d] = -1
			in[u][d] = -1
		}
	}
	for d := 0; d < n; d++ {
		for u := 0; u < n; u++ {
			if u == d {
				continue
			}
			out[u][d] = g.addPort(u, fmt.Sprintf("n%d.sub%d", u, d))
			// The buffer this port feeds sits at the next node
			// toward d.
			next := u + 1
			if d < u {
				next = u - 1
			}
			if next == d {
				// Destination-side buffers are built once per
				// side, below.
				continue
			}
			if in[next][d] < 0 {
				in[next][d] = g.addBuf(next, fmt.Sprintf("n%d.sub%d.in", next, d), DPSVCs, true, false)
			}
		}
	}
	// Destination-side buffers: one per side that has any upstream node.
	for d := 0; d < n; d++ {
		if d > 0 {
			inAtDest[d][0] = g.addBuf(d, fmt.Sprintf("n%d.sub%d.inN", d, d), DPSVCs, true, false)
		} else {
			inAtDest[d][0] = -1
		}
		if d < n-1 {
			inAtDest[d][1] = g.addBuf(d, fmt.Sprintf("n%d.sub%d.inS", d, d), DPSVCs, true, false)
		} else {
			inAtDest[d][1] = -1
		}
	}
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			var legs []Leg
			if s != d {
				step := 1
				if d < s {
					step = -1
				}
				for u := s; u != d; u += step {
					next := u + step
					var buf BufID
					if next == d {
						side := 0
						if step < 0 {
							side = 1
						}
						buf = inAtDest[d][side]
					} else {
						buf = in[next][d]
					}
					rd := DPSIntermediateDelay
					intermediate := true
					if u == s {
						rd = MeshRouterDelay
						intermediate = false
					}
					legs = append(legs, Leg{
						Node:         u,
						Out:          out[u][d],
						In:           buf,
						WireDelay:    noc.WireDelay,
						RouterDelay:  rd,
						Intermediate: intermediate,
						HopWeight:    1,
					})
				}
			}
			legs = append(legs, g.ejectionLeg(d))
			g.paths[s][d][0] = legs
		}
	}
}
