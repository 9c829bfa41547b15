package network

import (
	"testing"
	"unsafe"

	"tanoq/internal/noc"
	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// arenaNet builds a minimal network whose arena can be driven by hand:
// one silent injector (rate is irrelevant — the tests below call
// newPacket directly, through mintAt).
func arenaNet(t *testing.T) *Network {
	t.Helper()
	w := traffic.Workload{Nodes: topology.ColumnNodes, Specs: []traffic.Spec{{
		Flow: traffic.FlowOf(0, 0), Node: 0, Rate: 0.01,
		Dest: traffic.FixedDest(1),
	}}}
	n := MustNew(Config{Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 1})
	return n
}

// mintAt mints a fresh packet for source s created at cycle t, drawing
// its ID the way generation does.
func mintAt(n *Network, s *source, t sim.Cycle) pktH {
	n.nextPktID++
	return n.newPacket(s, pending{id: n.nextPktID, created: t, flow: int32(s.spec.Flow), dst: 1, class: noc.ClassRequest})
}

// TestArenaGenerationGuardsStaleHandles is the arena-layer mirror of
// TestRecycledPacketsAreIndistinguishable: it drives random interleavings
// of allocation and recycling directly against the arena and proves that
// a handle captured before a recycle can never be mistaken for the slot's
// new occupant — the recorded (handle, generation) pair stops matching
// the slot the moment the slot is recycled, which is exactly the check
// every packet-borne event performs before firing.
func TestArenaGenerationGuardsStaleHandles(t *testing.T) {
	n := arenaNet(t)
	s := &n.srcs[0]
	rng := sim.NewRNG(0xa3e1a)

	type stale struct {
		h   pktH
		gen uint32
		id  uint64
	}
	var live []stale // handles of packets not yet recycled
	var dead []stale // handles captured before their recycle
	for step := 0; step < 10_000; step++ {
		if len(live) == 0 || rng.Intn(2) == 0 {
			h := mintAt(n, s, sim.Cycle(step))
			p := n.pktAt(h)
			live = append(live, stale{h: h, gen: p.gen, id: p.ID})
		} else {
			pick := rng.Intn(len(live))
			v := live[pick]
			live[pick] = live[len(live)-1]
			live = live[:len(live)-1]
			n.recycle(v.h)
			dead = append(dead, v)
		}
	}
	if len(dead) == 0 {
		t.Fatal("test did not exercise recycling")
	}

	// Every live handle still resolves to its packet.
	for _, v := range live {
		p := n.pktAt(v.h)
		if p.gen != v.gen || p.ID != v.id {
			t.Fatalf("live handle %d drifted: gen %d/%d id %d/%d", v.h, p.gen, v.gen, p.ID, v.id)
		}
	}
	// Every recycled handle is unreachable through its recorded
	// generation: the guard comparison that protects events fails.
	for _, v := range dead {
		if n.pktAt(v.h).gen == v.gen {
			t.Fatalf("stale handle %d still matches generation %d after recycle", v.h, v.gen)
		}
	}

	// And an event scheduled against a pre-recycle generation is a no-op:
	// dispatch must not mutate the slot's current occupant.
	h := mintAt(n, s, 0)
	p := n.pktAt(h)
	staleGen := p.gen
	staleID := p.ID
	n.recycle(h)
	h2 := mintAt(n, s, 0) // reuses the slot
	if h2 != h {
		t.Fatalf("free stack did not reuse slot %d (got %d)", h, h2)
	}
	reborn := n.pktAt(h2)
	if reborn.ID == staleID || reborn.gen == staleGen {
		t.Fatal("recycled slot kept its old identity")
	}
	beforeState, beforeRetx := reborn.state, s.retx.len()
	n.dispatch(event{kind: evNack, p: h, pgen: staleGen}, 0)
	if got := n.pktAt(h2); got.state != beforeState || s.retx.len() != beforeRetx {
		t.Fatal("stale event mutated the slot's new occupant")
	}
}

// TestArenaSlotZeroIsReserved pins the nil-handle convention: handle 0
// must never be handed out, so (&arena[h]) stays branch-free everywhere.
func TestArenaSlotZeroIsReserved(t *testing.T) {
	n := arenaNet(t)
	s := &n.srcs[0]
	for i := 0; i < 100; i++ {
		if h := mintAt(n, s, 0); h == noPkt {
			t.Fatal("arena handed out the nil handle")
		}
	}
}

// TestEventIs24Bytes pins the event record's size: it is copied on every
// schedule and fire, and a spilled one waits in the overflow heap as a
// 40-byte spilled[event].
func TestEventIs24Bytes(t *testing.T) {
	if sz := unsafe.Sizeof(event{}); sz != 24 {
		t.Errorf("event is %d bytes, want 24", sz)
	}
	if sz := unsafe.Sizeof(spilled[event]{}); sz != 40 {
		t.Errorf("spilled[event] is %d bytes, want 40", sz)
	}
}

// TestBacklogStaysOffArena pins the arena bound under saturation: a
// quick-scale uniform 15% PVC cell drives every topology far past what
// it accepts, so source backlogs grow without bound, yet only offered and
// in-network packets may hold arena slots — the arena never outgrows its
// pre-sized capacity however deep the pending FIFOs run.
func TestBacklogStaysOffArena(t *testing.T) {
	if sz := unsafe.Sizeof(pending{}); sz != 32 {
		t.Fatalf("pending record is %d bytes, want 32 (srcQueueBytes pre-sizes the FIFO by it)", sz)
	}
	for _, kind := range topology.Kinds() {
		t.Run(kind.String(), func(t *testing.T) {
			w := traffic.UniformRandom(topology.ColumnNodes, 0.15)
			n := MustNew(Config{Kind: kind, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 3})
			n.WarmupAndMeasure(3000, 15000)
			backlog := 0
			for i := range n.srcs {
				backlog += n.srcs[i].queue.len()
			}
			if backlog <= 10_000 {
				t.Fatalf("%v: source queues hold %d records, want a saturated backlog above 10000", kind, backlog)
			}
			if len(n.arena) > arenaCap {
				t.Errorf("%v: arena grew to %d slots (backlog %d), want at most %d", kind, len(n.arena), backlog, arenaCap)
			}
			t.Logf("%v: %d arena slots, %d queued records", kind, len(n.arena), backlog)
		})
	}
}
