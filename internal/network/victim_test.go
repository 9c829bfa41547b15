package network

import (
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"tanoq/internal/noc"
	"tanoq/internal/topology"
)

// findVictimOracle is the requester-specific victim search worstVictim
// replaced, kept verbatim as its oracle: the VC holding the worst priority
// strictly above prio among the preemptable occupants, or -1.
func (n *Network) findVictimOracle(b *inBuf, prio noc.Priority, prios []noc.Priority) int32 {
	worst := int32(-1)
	var worstPrio noc.Priority
	for wi, w := range b.freeW {
		busy := ^w
		if int32(wi) == b.nvc>>6 {
			if rem := b.nvc & 63; rem != 0 {
				busy &= (1 << uint(rem)) - 1
			}
		}
		for busy != 0 {
			i := int32(wi<<6 + bits.TrailingZeros64(busy))
			busy &= busy - 1
			h := b.owner[i]
			if h == noPkt {
				continue
			}
			v := &n.arena[h]
			if v.Reserved || v.state == stDelivered || v.state == stDead {
				continue
			}
			resident := (v.curBuf == int32(b.id) && v.curVC == i) || (v.nxtBuf == int32(b.id) && v.nxtVC == i)
			if !resident {
				continue
			}
			vp := prios[v.Flow]
			if vp <= prio {
				continue
			}
			if worst < 0 || vp > worstPrio {
				worst = i
				worstPrio = vp
			}
		}
	}
	return worst
}

// occupant describes how one VC of a test buffer is held.
type occupant struct {
	flow     noc.FlowID
	held     bool // false: the VC is free
	inbound  bool // claimed through nxtBuf (in flight into the buffer), not curBuf
	draining bool // owner has moved on; only its tail still occupies the VC
	reserved bool
	state    pktState
}

// victimFixture builds a buffer whose VC i is held as vcs[i] says, on a
// network that holds nothing but the occupants' arena slots.
func victimFixture(vcs []occupant) (*Network, *inBuf) {
	n := &Network{arena: make([]pkt, 1)}
	var feed uint64
	b := &inBuf{}
	b.reinit(3, topology.BufSpec{Name: "test", VCs: len(vcs)}, false, &feed)
	for i, o := range vcs {
		if !o.held {
			continue
		}
		p := pkt{state: o.state, curBuf: noBuf, curVC: -1, nxtBuf: noBuf, nxtVC: -1}
		p.Flow, p.Reserved = o.flow, o.reserved
		switch {
		case o.draining:
			p.curBuf, p.curVC = int32(b.id)+1, int32(i) // same VC index, another buffer
		case o.inbound:
			p.nxtBuf, p.nxtVC = int32(b.id), int32(i)
		default:
			p.curBuf, p.curVC = int32(b.id), int32(i)
		}
		n.arena = append(n.arena, p)
		b.owner[i] = pktH(len(n.arena) - 1)
		b.freeW[i>>6] &^= 1 << uint(i&63)
		b.occupied++
	}
	return n, b
}

// checkVictim holds worstVictim to the oracle at every threshold that can
// tell them apart: below, at and above each priority in use.
func checkVictim(t *testing.T, n *Network, b *inBuf, prios []noc.Priority) (int32, noc.Priority) {
	t.Helper()
	vc, vp := n.worstVictim(b, prios)
	if vc < 0 && vp != 0 {
		t.Errorf("no victim, yet priority %d", vp)
	}
	for _, p := range append([]noc.Priority{0, noc.WorstPriority}, prios...) {
		for _, threshold := range []noc.Priority{p - 1, p, p + 1} {
			want := n.findVictimOracle(b, threshold, prios)
			got := int32(-1)
			if vp > threshold {
				got = vc
			}
			if got != want {
				t.Errorf("threshold %d: worstVictim (%d, %d) preempts VC %d, findVictim chose %d", threshold, vc, vp, got, want)
			}
		}
	}
	return vc, vp
}

// TestWorstVictimMatchesFindVictim pins the requester-independent victim
// search to the per-requester one it replaced: a requester preempts
// exactly the VC findVictim would have handed it, on hand-built buffers
// covering every way an occupant is disqualified and on random ones.
func TestWorstVictimMatchesFindVictim(t *testing.T) {
	prios := []noc.Priority{40, 10, 40, 70, 0, 25}
	held := func(flow noc.FlowID) occupant { return occupant{flow: flow, held: true, state: stWaiting} }
	with := func(o occupant, edit func(*occupant)) occupant { edit(&o); return o }
	cases := []struct {
		name   string
		vcs    []occupant
		wantVC int32
		wantP  noc.Priority
	}{
		{"empty buffer", []occupant{{}, {}, {}}, -1, 0},
		{"worst priority wins", []occupant{held(1), held(0), held(5)}, 1, 40},
		{"tie goes to the lowest index", []occupant{held(1), held(2), held(0), {}}, 1, 40},
		{"in flight into the buffer counts", []occupant{held(1), with(held(3), func(o *occupant) { o.inbound, o.state = true, stMoving })}, 1, 70},
		{"a draining VC is not a victim", []occupant{held(1), with(held(3), func(o *occupant) { o.draining, o.state = true, stMoving })}, 0, 10},
		{"a compliant holder is not a victim", []occupant{with(held(3), func(o *occupant) { o.reserved = true }), held(5)}, 1, 25},
		{"delivered and dead owners are not victims", []occupant{
			with(held(3), func(o *occupant) { o.state = stDelivered }),
			with(held(3), func(o *occupant) { o.state = stDead }), held(1)}, 2, 10},
		{"a zero-priority occupant is found, and never preempted", []occupant{held(4)}, 0, 0},
		{"nothing preemptable", []occupant{with(held(3), func(o *occupant) { o.reserved = true }), {}}, -1, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, b := victimFixture(tc.vcs)
			if vc, vp := checkVictim(t, n, b, prios); vc != tc.wantVC || vp != tc.wantP {
				t.Errorf("worstVictim = (%d, %d), want (%d, %d)", vc, vp, tc.wantVC, tc.wantP)
			}
		})
	}
	t.Run("random", func(t *testing.T) {
		rng := rand.New(rand.NewSource(7))
		for round := 0; round < 2_000; round++ {
			prios := make([]noc.Priority, 1+rng.Intn(6))
			for f := range prios {
				prios[f] = noc.Priority(rng.Intn(4)) * 16 // few classes: ties are common
			}
			// Mostly the paper's pool sizes; now and then one past a bitmap word.
			vcs := make([]occupant, []int{1, 2, 4, 5, 6, 64, 70}[rng.Intn(7)])
			for i := range vcs {
				vcs[i] = occupant{
					flow: noc.FlowID(rng.Intn(len(prios))), held: rng.Intn(4) > 0,
					inbound: rng.Intn(3) == 0, draining: rng.Intn(5) == 0, reserved: rng.Intn(4) == 0,
					state: []pktState{stWaiting, stWaiting, stMoving, stDelivered, stDead}[rng.Intn(5)],
				}
			}
			n, b := victimFixture(vcs)
			checkVictim(t, n, b, prios)
		}
	})
}

// TestAuditChecksVictimHalfOfBlockedVerdicts forges the fault the
// auditor's live-verdict check exists for, on its preemption side: under a
// live blocked verdict a buffered packet's flow is repriced without the
// port's epoch moving, so a waiter that was rightly refused could now
// preempt it — and the verdict still says nobody can.
func TestAuditChecksVictimHalfOfBlockedVerdicts(t *testing.T) {
	n := adversarialNet(t, topology.MeshX1, 11)
	for cycle := 0; cycle < 20_000; cycle++ {
		n.Step()
		for pi := range n.ports {
			port := &n.ports[pi]
			if port.blockedAt != port.epoch {
				continue
			}
			prios := port.table.Priorities()
			for _, h := range port.waiters {
				w := &n.arena[h]
				leg := &w.legs[w.Hop()]
				vc, _ := n.worstVictim(&n.bufs[leg.In], prios)
				if leg.Intermediate || vc < 0 {
					continue
				}
				victim := n.arena[n.bufs[leg.In].owner[vc]].Flow
				if victim == w.Flow {
					continue
				}
				if err := n.AuditInvariants(); err != nil {
					t.Fatalf("audit of the unbroken network: %v", err)
				}
				prios[victim] = 1 << 40
				err := n.AuditInvariants()
				if err == nil || !strings.Contains(err.Error(), "can preempt") {
					t.Errorf("auditor said %v, want the repriced occupant reported as preemptable", err)
				}
				return
			}
		}
	}
	t.Fatal("no blocked port with a preemptable occupant in 20 000 cycles: the test needs one")
}
