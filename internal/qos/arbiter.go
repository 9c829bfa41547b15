package qos

import (
	"tanoq/internal/noc"
	"tanoq/internal/sim"
)

// Candidate is one packet competing for an output resource during virtual
// channel allocation. The arbiter sees only what real PVC hardware sees:
// the carried/dynamic priority, the rate-compliance bit, and — for
// determinism in ties — age and identity.
type Candidate struct {
	Packet   *noc.Packet
	Priority noc.Priority
	// Enqueued is when the packet became ready at this router, used as
	// the first tie-breaker (oldest first), matching the FIFO order a
	// hardware matrix arbiter degenerates to under equal priorities.
	Enqueued sim.Cycle
}

// Better reports whether candidate a should win arbitration over b under
// PVC: strictly lower priority value first, then older, then lower packet
// ID (a deterministic stand-in for hardware's fixed port ordering).
func Better(a, b Candidate) bool {
	if a.Priority != b.Priority {
		return a.Priority < b.Priority
	}
	if a.Enqueued != b.Enqueued {
		return a.Enqueued < b.Enqueued
	}
	return a.Packet.ID < b.Packet.ID
}

// PickPVC returns the index of the winning candidate under PVC ordering,
// or -1 when there are no candidates.
func PickPVC(cands []Candidate) int {
	best := -1
	for i := range cands {
		if best < 0 || Better(cands[i], cands[best]) {
			best = i
		}
	}
	return best
}

// RoundRobin is a positional round-robin arbiter used by the NoQoS policy.
// It has no notion of flows: it simply rotates priority among requesting
// positions, which is locally fair but — as the paper's motivation shows —
// globally unfair in a multi-hop network, because each merge point halves
// the share of upstream traffic (the parking-lot effect).
type RoundRobin struct {
	last int
}

// Pick selects among n positions, of which requesting(i) reports whether
// position i wants the grant. It returns -1 when nobody requests.
func (r *RoundRobin) Pick(n int, requesting func(int) bool) int {
	if n <= 0 {
		return -1
	}
	// last can exceed n once the position count has shrunk: reduce it
	// once, then rotate by compare.
	i := r.last % n
	for off := 0; off < n; off++ {
		if i++; i == n {
			i = 0
		}
		if requesting(i) {
			r.last = i
			return i
		}
	}
	return -1
}
