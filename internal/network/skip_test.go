package network

import (
	"reflect"
	"testing"

	"tanoq/internal/qos"
	"tanoq/internal/sim"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// These tests pin the corners of idle-cycle fast-forwarding: frame
// boundaries, StopAt, re-draining an idle network, and that the clock
// really jumps. That a skipped run is bit-identical to a ticked one over
// whole cells is the contract table's skip-off row (contract_test.go).

// skipFingerprint captures every observable of one finished simulation.
type skipFingerprint struct {
	delivered    int64
	latency      int64
	injected     int64
	retransmits  int64
	preemptions  int64
	wastedHops   int64
	totalHops    int64
	retries      int64
	drops        int64
	faultDrops   int64
	recovered    int64
	lastDelivery sim.Cycle
	frames       int
	clock        sim.Cycle
	flitsByFlow  []int64
}

func fingerprint(n *Network) skipFingerprint {
	st := n.Stats()
	return skipFingerprint{
		delivered:    st.TotalDelivered,
		latency:      st.TotalLatency,
		injected:     st.InjectedPackets,
		retransmits:  st.Retransmits,
		preemptions:  st.PreemptionEvents,
		wastedHops:   st.WastedHops,
		totalHops:    st.TotalHops,
		retries:      st.TotalRetries,
		drops:        st.TotalDropped,
		faultDrops:   st.FaultDrops,
		recovered:    st.RecoveredPackets,
		lastDelivery: st.LastDelivery,
		frames:       n.Frames(),
		clock:        n.Now(),
	}
}

func equalFingerprints(a, b skipFingerprint) bool {
	return reflect.DeepEqual(a, b)
}

// TestIdleSkipHonorsFrameBoundaries pins the fast-forward bookkeeping for
// PVC frames: a mostly-idle network must still flush flow counters and
// refill quotas at every frame boundary — the wake computation may jump
// onto a boundary but never over it — so the frame count after Run is
// exactly cycles/frame, with skipping on and off.
func TestIdleSkipHonorsFrameBoundaries(t *testing.T) {
	for _, disable := range []bool{false, true} {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.001)
		cfg := qos.DefaultConfig(w.TotalFlows())
		cfg.FrameCycles = 500
		n := MustNew(Config{
			Kind: topology.MeshX1, QoS: cfg, Workload: w, Seed: 11,
			DisableIdleSkip: disable,
		})
		n.Run(10_000)
		if n.Now() != 10_000 {
			t.Fatalf("skip=%v: clock at %d, want 10000", !disable, n.Now())
		}
		// Boundaries fire at 500, 1000, ..., 10000 is not stepped (Run
		// ends with the clock there), so 19 flushes.
		if got := n.Frames(); got != 19 {
			t.Errorf("skip=%v: %d frame flushes over 10000 cycles at frame 500, want 19", !disable, got)
		}
	}
}

// TestIdleSkipHonorsStopAtExactly pins the StopAt boundary: a source
// whose next geometric arrival lands at or past StopAt must never emit
// it, and the skipping engine must generate exactly the packet population
// the ticking engine does.
func TestIdleSkipHonorsStopAtExactly(t *testing.T) {
	gen := func(disable bool, stop sim.Cycle) (int64, int64) {
		w := traffic.UniformRandom(topology.ColumnNodes, 0.03).WithStop(stop)
		cfg := qos.DefaultConfig(w.TotalFlows())
		n := MustNew(Config{
			Kind: topology.DPS, QoS: cfg, Workload: w, Seed: 5,
			DisableIdleSkip: disable,
		})
		n.RunUntilDrained(200_000)
		var generated int64
		for _, s := range n.srcs {
			generated += s.generated
		}
		return generated, n.Stats().TotalDelivered
	}
	for _, stop := range []sim.Cycle{1, 777, 5_000} {
		tg, td := gen(true, stop)
		sg, sd := gen(false, stop)
		if tg != sg || td != sd {
			t.Errorf("stop=%d: ticked generated/delivered %d/%d, skipped %d/%d", stop, tg, td, sg, sd)
		}
		if tg != td {
			t.Errorf("stop=%d: generated %d but delivered %d after drain", stop, tg, td)
		}
	}
}

// TestIdleSkipDrainOfIdleNetworkMatchesTicking pins the re-entry corner:
// calling RunUntilDrained on an already-drained network must behave like
// the tick engine, which executes one no-op Step before noticing idleness
// — so the final clock (and any frame flush that step lands on) must be
// identical with skipping on and off.
func TestIdleSkipDrainOfIdleNetworkMatchesTicking(t *testing.T) {
	run := func(disable bool) (sim.Cycle, int, bool) {
		n := MustNew(Config{
			Kind:            topology.MeshX1,
			QoS:             qos.DefaultConfig(64),
			Workload:        singlePacketWorkload(0, 3),
			Seed:            1,
			DisableIdleSkip: disable,
		})
		if _, drained := n.RunUntilDrained(500); !drained {
			t.Fatal("first drain failed")
		}
		_, again := n.RunUntilDrained(500)
		return n.Now(), n.Frames(), again
	}
	tc, tf, td := run(true)
	sc, sf, sd := run(false)
	if tc != sc || tf != sf || td != sd {
		t.Errorf("re-drain diverged: tick (clock %d, frames %d, drained %v) vs skip (clock %d, frames %d, drained %v)",
			tc, tf, td, sc, sf, sd)
	}
}

// TestIdleSkipFastForwardsTheClock sanity-checks that skipping actually
// engages: a drained PVC network running a long idle window must execute
// only the frame-boundary cycles, which this test observes through the
// clock landing exactly at the requested horizon while a single-packet
// workload is long gone.
func TestIdleSkipFastForwardsTheClock(t *testing.T) {
	n := MustNew(Config{
		Kind:     topology.MeshX1,
		QoS:      qos.DefaultConfig(64),
		Workload: singlePacketWorkload(0, 5),
		Seed:     1,
	})
	n.Run(1_000_000)
	if n.Now() != 1_000_000 {
		t.Fatalf("clock at %d after Run(1e6)", n.Now())
	}
	if n.Stats().TotalDelivered != 1 {
		t.Fatalf("delivered %d packets", n.Stats().TotalDelivered)
	}
	// Boundaries at 50K, 100K, ..., 950K; cycle 1M itself is not stepped
	// (Run ends with the clock on it), so one fewer than 1M/50K.
	if got, want := n.Frames(), int(1_000_000/qos.DefaultFrameCycles)-1; got != want {
		t.Errorf("%d frames fired, want %d", got, want)
	}
}
