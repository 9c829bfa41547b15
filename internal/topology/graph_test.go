package topology

import (
	"testing"
	"testing/quick"

	"tanoq/internal/noc"
)

func allGraphs(t *testing.T, nodes int) map[Kind]*Graph {
	t.Helper()
	gs := make(map[Kind]*Graph)
	for _, k := range Kinds() {
		gs[k] = NewGraph(k, nodes)
	}
	return gs
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{
		MeshX1: "mesh_x1", MeshX2: "mesh_x2", MeshX4: "mesh_x4",
		MECS: "mecs", DPS: "dps",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q, want %q", uint8(k), k, s)
		}
	}
}

func TestNumPortsMatchesBuiltGraphs(t *testing.T) {
	for _, nodes := range []int{2, 3, 4, 8} {
		for k, g := range allGraphs(t, nodes) {
			if got, want := NumPorts(k, nodes), len(g.Ports); got != want {
				t.Errorf("NumPorts(%v, %d) = %d, graph has %d ports", k, nodes, got, want)
			}
		}
	}
	if NumPorts(MeshX1, 1) != 0 {
		t.Error("NumPorts must return 0 for configurations NewGraph rejects")
	}
}

func TestReplication(t *testing.T) {
	if MeshX1.Replication() != 1 || MeshX2.Replication() != 2 || MeshX4.Replication() != 4 {
		t.Error("mesh replication degrees wrong")
	}
	if MECS.Replication() != 1 || DPS.Replication() != 1 {
		t.Error("MECS/DPS must be unreplicated")
	}
}

func TestBisectionEquality(t *testing.T) {
	// Section 4: MECS, DPS and mesh x4 have equal bisection bandwidth;
	// mesh x1 and x2 have less.
	n := ColumnNodes
	b4 := MeshX4.BisectionChannels(n)
	if MECS.BisectionChannels(n) != b4 || DPS.BisectionChannels(n) != b4 {
		t.Errorf("bisection mismatch: mecs=%d dps=%d mesh_x4=%d",
			MECS.BisectionChannels(n), DPS.BisectionChannels(n), b4)
	}
	if MeshX1.BisectionChannels(n) >= b4 || MeshX2.BisectionChannels(n) >= b4 {
		t.Error("mesh x1/x2 should have less bisection bandwidth than mesh x4")
	}
}

func TestPathsTerminateAtDestination(t *testing.T) {
	for kind, g := range allGraphs(t, ColumnNodes) {
		for s := 0; s < g.Nodes; s++ {
			for d := 0; d < g.Nodes; d++ {
				for r := 0; r < g.NumReplicas(); r++ {
					legs := g.Path(noc.NodeID(s), noc.NodeID(d), r)
					if len(legs) == 0 {
						t.Fatalf("%v: empty path %d->%d", kind, s, d)
					}
					last := legs[len(legs)-1]
					if !last.Final {
						t.Errorf("%v: path %d->%d does not end with ejection", kind, s, d)
					}
					if last.Node != d {
						t.Errorf("%v: path %d->%d ejects at node %d", kind, s, d, last.Node)
					}
					if last.Out != g.termPort[d] || last.In != g.ejBuf[d] {
						t.Errorf("%v: path %d->%d ejection leg misses terminal resources", kind, s, d)
					}
				}
			}
		}
	}
}

func TestPathsStartAtSource(t *testing.T) {
	for kind, g := range allGraphs(t, ColumnNodes) {
		for s := 0; s < g.Nodes; s++ {
			for d := 0; d < g.Nodes; d++ {
				legs := g.Path(noc.NodeID(s), noc.NodeID(d), 0)
				if legs[0].Node != s {
					t.Errorf("%v: path %d->%d starts at node %d", kind, s, d, legs[0].Node)
				}
			}
		}
	}
}

func TestPathLegsAreContiguous(t *testing.T) {
	// Each leg's downstream buffer must live at the node where the next
	// leg arbitrates.
	for kind, g := range allGraphs(t, ColumnNodes) {
		for s := 0; s < g.Nodes; s++ {
			for d := 0; d < g.Nodes; d++ {
				for r := 0; r < g.NumReplicas(); r++ {
					legs := g.Path(noc.NodeID(s), noc.NodeID(d), r)
					for i := 0; i+1 < len(legs); i++ {
						bufNode := g.Bufs[legs[i].In].Node
						if bufNode != legs[i+1].Node {
							t.Fatalf("%v %d->%d: leg %d lands at node %d but leg %d arbitrates at %d",
								kind, s, d, i, bufNode, i+1, legs[i+1].Node)
						}
						if g.Ports[legs[i].Out].Node != legs[i].Node {
							t.Fatalf("%v %d->%d: leg %d uses port of node %d",
								kind, s, d, i, g.Ports[legs[i].Out].Node)
						}
					}
				}
			}
		}
	}
}

func TestPathHopWeightEqualsDistance(t *testing.T) {
	// Normalized hop accounting: total hop weight of any path equals the
	// mesh-equivalent distance, regardless of topology (Section 5.3).
	for kind, g := range allGraphs(t, ColumnNodes) {
		for s := 0; s < g.Nodes; s++ {
			for d := 0; d < g.Nodes; d++ {
				legs := g.Path(noc.NodeID(s), noc.NodeID(d), 0)
				total := 0
				for _, l := range legs {
					total += l.HopWeight
				}
				if want := Distance(noc.NodeID(s), noc.NodeID(d)); total != want {
					t.Errorf("%v: %d->%d hop weight %d, want %d", kind, s, d, total, want)
				}
			}
		}
	}
}

// unloadedLatency computes the zero-load header+tail latency of a path for
// a packet of the given size, mirroring the engine's timing model.
func unloadedLatency(legs []Leg, size int) int {
	t := 0
	for _, l := range legs {
		t += l.RouterDelay + l.WireDelay
	}
	return t + size - 1
}

func TestZeroLoadLatencyShape(t *testing.T) {
	// The paper's latency relationships at zero load (Section 5.2):
	// mesh 3d+2, MECS d+6, DPS 2d+3 for a single-flit packet at
	// distance d.
	gm := NewGraph(MeshX1, ColumnNodes)
	ge := NewGraph(MECS, ColumnNodes)
	gd := NewGraph(DPS, ColumnNodes)
	for d := 1; d < ColumnNodes; d++ {
		mesh := unloadedLatency(gm.Path(0, noc.NodeID(d), 0), 1)
		mecs := unloadedLatency(ge.Path(0, noc.NodeID(d), 0), 1)
		dps := unloadedLatency(gd.Path(0, noc.NodeID(d), 0), 1)
		if mesh != 3*d+2 {
			t.Errorf("mesh latency at d=%d: %d, want %d", d, mesh, 3*d+2)
		}
		if mecs != d+6 {
			t.Errorf("MECS latency at d=%d: %d, want %d", d, mecs, d+6)
		}
		if dps != 2*d+3 {
			t.Errorf("DPS latency at d=%d: %d, want %d", d, dps, 2*d+3)
		}
	}
	// Crossover: short transfers favour DPS, long transfers favour MECS.
	if unloadedLatency(gd.Path(0, 1, 0), 1) >= unloadedLatency(ge.Path(0, 1, 0), 1) {
		t.Error("DPS should beat MECS at distance 1")
	}
	if unloadedLatency(ge.Path(0, 7, 0), 1) >= unloadedLatency(gd.Path(0, 7, 0), 1) {
		t.Error("MECS should beat DPS at distance 7")
	}
}

func TestMECSPathsAreSingleExpressLeg(t *testing.T) {
	g := NewGraph(MECS, ColumnNodes)
	for s := 0; s < g.Nodes; s++ {
		for d := 0; d < g.Nodes; d++ {
			legs := g.Path(noc.NodeID(s), noc.NodeID(d), 0)
			wantLegs := 2
			if s == d {
				wantLegs = 1
			}
			if len(legs) != wantLegs {
				t.Fatalf("MECS %d->%d has %d legs, want %d", s, d, len(legs), wantLegs)
			}
			if s != d && legs[0].WireDelay != Distance(noc.NodeID(s), noc.NodeID(d)) {
				t.Errorf("MECS %d->%d wire delay %d", s, d, legs[0].WireDelay)
			}
		}
	}
}

func TestDPSIntermediateLegsAreMuxHops(t *testing.T) {
	g := NewGraph(DPS, ColumnNodes)
	legs := g.Path(0, 7, 0)
	if len(legs) != 8 { // 7 transfer legs + ejection
		t.Fatalf("DPS 0->7 has %d legs, want 8", len(legs))
	}
	if legs[0].Intermediate || legs[0].RouterDelay != MeshRouterDelay {
		t.Error("DPS source leg must be a full 2-stage traversal")
	}
	for i := 1; i < 7; i++ {
		if !legs[i].Intermediate || legs[i].RouterDelay != DPSIntermediateDelay {
			t.Errorf("DPS leg %d: intermediate=%v delay=%d", i, legs[i].Intermediate, legs[i].RouterDelay)
		}
	}
	if legs[7].Intermediate || !legs[7].Final {
		t.Error("DPS ejection leg malformed")
	}
}

func TestDPSSubnetsShareNoTransferResources(t *testing.T) {
	// Packets to different destinations must never contend: subnets are
	// physically disjoint (ejection resources excluded — those belong to
	// a single destination anyway).
	g := NewGraph(DPS, ColumnNodes)
	portDest := make(map[PortID]int)
	bufDest := make(map[BufID]int)
	for s := 0; s < g.Nodes; s++ {
		for d := 0; d < g.Nodes; d++ {
			for _, l := range g.Path(noc.NodeID(s), noc.NodeID(d), 0) {
				if l.Final {
					continue
				}
				if prev, ok := portDest[l.Out]; ok && prev != d {
					t.Fatalf("port %d shared by subnets %d and %d", l.Out, prev, d)
				}
				portDest[l.Out] = d
				if prev, ok := bufDest[l.In]; ok && prev != d {
					t.Fatalf("buffer %d shared by subnets %d and %d", l.In, prev, d)
				}
				bufDest[l.In] = d
			}
		}
	}
}

func TestMeshReplicasAreDisjoint(t *testing.T) {
	g := NewGraph(MeshX4, ColumnNodes)
	for s := 0; s < g.Nodes; s++ {
		for d := 0; d < g.Nodes; d++ {
			if s == d {
				continue
			}
			seenPorts := make(map[PortID]int)
			for r := 0; r < 4; r++ {
				for _, l := range g.Path(noc.NodeID(s), noc.NodeID(d), r) {
					if l.Final {
						continue
					}
					if prev, ok := seenPorts[l.Out]; ok && prev != r {
						t.Fatalf("%d->%d: port %d on replicas %d and %d", s, d, l.Out, prev, r)
					}
					seenPorts[l.Out] = r
				}
			}
		}
	}
}

func TestVCProvisioningMatchesTable1(t *testing.T) {
	cases := map[Kind]int{MeshX1: 6, MeshX2: 6, MeshX4: 6, MECS: 14, DPS: 5}
	for kind, want := range cases {
		g := NewGraph(kind, ColumnNodes)
		for _, b := range g.Bufs {
			if b.Ejection {
				if b.VCs != EjectionVCs {
					t.Errorf("%v: ejection buffer %s has %d VCs", kind, b.Name, b.VCs)
				}
				continue
			}
			if b.VCs != want {
				t.Errorf("%v: buffer %s has %d VCs, want %d", kind, b.Name, b.VCs, want)
			}
			if !b.Reserved {
				t.Errorf("%v: network buffer %s lacks a reserved VC", kind, b.Name)
			}
		}
	}
}

func TestReplicaSelectionWraps(t *testing.T) {
	g := NewGraph(MeshX2, ColumnNodes)
	// Replica indices beyond the replication degree must wrap, not panic.
	if got := g.Path(0, 3, 5); got == nil {
		t.Fatal("replica wrap returned nil path")
	}
	p5 := g.Path(0, 3, 5)
	p1 := g.Path(0, 3, 1)
	if &p5[0] != &p1[0] {
		t.Error("replica 5 should alias replica 1 for x2")
	}
}

func TestGraphPanicsOnTinyColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-node column did not panic")
		}
	}()
	NewGraph(MeshX1, 1)
}

func TestDistanceProperty(t *testing.T) {
	check := func(a, b uint8) bool {
		x, y := noc.NodeID(a%8), noc.NodeID(b%8)
		d := Distance(x, y)
		return d >= 0 && d == Distance(y, x) && (d == 0) == (x == y)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPathsMonotoneTowardDestProperty(t *testing.T) {
	// Every transfer leg must strictly reduce the distance to the
	// destination (minimal DOR routing) for all topologies.
	gs := allGraphs(t, ColumnNodes)
	check := func(ks, ss, ds, rr uint8) bool {
		kind := Kinds()[int(ks)%len(Kinds())]
		g := gs[kind]
		s := noc.NodeID(ss % 8)
		d := noc.NodeID(ds % 8)
		legs := g.Path(s, d, int(rr))
		at := s
		for _, l := range legs {
			if l.Final {
				return at == d
			}
			next := noc.NodeID(g.Bufs[l.In].Node)
			if Distance(next, d) >= Distance(at, d) {
				return false
			}
			at = next
		}
		return false
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestEveryBufferHasOneFeeder pins the structural fact the engine's
// per-port arbitration epoch rests on: walking every replica path of
// every topology at every column height, each buffer is entered from
// exactly one output port, and Graph.Feeder names it.
func TestEveryBufferHasOneFeeder(t *testing.T) {
	for nodes := 2; nodes <= ColumnNodes; nodes++ {
		for k, g := range allGraphs(t, nodes) {
			seen := make(map[BufID]PortID)
			for s := 0; s < nodes; s++ {
				for d := 0; d < nodes; d++ {
					for r := 0; r < g.NumReplicas(); r++ {
						for _, leg := range g.Path(noc.NodeID(s), noc.NodeID(d), r) {
							if f, ok := seen[leg.In]; ok && f != leg.Out {
								t.Fatalf("%v/%d: buffer %s entered from ports %s and %s", k, nodes,
									g.Bufs[leg.In].Name, g.Ports[f].Name, g.Ports[leg.Out].Name)
							}
							seen[leg.In] = leg.Out
						}
					}
				}
			}
			if len(g.Feeder) != len(g.Bufs) {
				t.Fatalf("%v/%d: Feeder covers %d of %d buffers", k, nodes, len(g.Feeder), len(g.Bufs))
			}
			for b := range g.Bufs {
				f, ok := seen[BufID(b)]
				if !ok {
					t.Errorf("%v/%d: buffer %s is on no path", k, nodes, g.Bufs[b].Name)
				} else if g.Feeder[b] != f {
					t.Errorf("%v/%d: Feeder[%s] = %d, paths enter it from %d", k, nodes, g.Bufs[b].Name, g.Feeder[b], f)
				}
			}
		}
	}
}
