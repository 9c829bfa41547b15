package telemetry_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/telemetry"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
	"tanoq/internal/workload"
)

// probeCell builds one standard cell for the equivalence tests.
func probeCell(kind topology.Kind, mode qos.Mode, skip bool) *network.Network {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.03)
	cfg := qos.DefaultConfig(w.TotalFlows())
	cfg.Mode = mode
	return network.MustNew(network.Config{
		Kind: kind, QoS: cfg, Workload: w, Seed: 7,
		DisableIdleSkip: !skip,
	})
}

// TestProbedRunEquivalentToUnprobed pins the tentpole contract: because
// the sampling probe is an ordinary calendar-ring event whose handler
// only reads engine state, installing a sampler must not move a single
// observable. Every topology × QoS mode × idle-skip setting runs the
// same cell probed and unprobed and compares full delivery
// fingerprints.
func TestProbedRunEquivalentToUnprobed(t *testing.T) {
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			for _, skip := range []bool{true, false} {
				name := kind.String() + "/" + mode.String() + "/skip=" + map[bool]string{true: "on", false: "off"}[skip]
				t.Run(name, func(t *testing.T) {
					run := func(probed bool) (string, *telemetry.Timeline) {
						n := probeCell(kind, mode, skip)
						var s *telemetry.Sampler
						if probed {
							s = telemetry.Attach(n, telemetry.Options{Interval: 500, Horizon: 12_000})
						}
						n.WarmupAndMeasure(4_000, 8_000)
						fp := workload.Fingerprint(n.Stats(), n.Now())
						if probed {
							return fp, s.Timeline()
						}
						return fp, nil
					}
					plain, _ := run(false)
					probed, tl := run(true)
					if plain != probed {
						t.Errorf("probe changed the simulation: unprobed %s, probed %s", plain, probed)
					}
					if tl.Samples() == 0 {
						t.Fatal("sampler collected no samples")
					}
					if len(tl.Marks) == 0 || tl.Marks[0].Kind != "measure-start" {
						t.Errorf("missing measure-start mark: %+v", tl.Marks)
					}
				})
			}
		}
	}
}

// TestTimelineDeterministicAcrossIdleSkip pins the other direction: not
// only must probes leave the run unchanged, the collected timeline
// itself must be byte-identical whether the engine ticked every cycle
// or fast-forwarded idle windows — probes ride the ring, so skip
// horizons stop exactly on probe ticks.
func TestTimelineDeterministicAcrossIdleSkip(t *testing.T) {
	collect := func(skip bool) []byte {
		n := probeCell(topology.MECS, qos.PVC, skip)
		s := telemetry.Attach(n, telemetry.Options{Interval: 250, Horizon: 12_000, TopFlows: 4})
		n.WarmupAndMeasure(4_000, 8_000)
		blob, err := json.Marshal(s.Timeline())
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	ticked, skipped := collect(false), collect(true)
	if !bytes.Equal(ticked, skipped) {
		t.Errorf("timeline differs across idle-skip:\nticked:  %s\nskipped: %s", ticked, skipped)
	}
}

// TestStepAllocationFreeWithSamplerInstalled extends the engine's
// zero-alloc pin to an instrumented run: every buffer a sampler writes
// during the run is preallocated at Attach, so Step must stay at
// exactly 0 allocs/op with a full-series sampler (flows + heatmap
// included) firing throughout the measured window.
func TestStepAllocationFreeWithSamplerInstalled(t *testing.T) {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.04)
	n := network.MustNew(network.Config{
		Kind:     topology.MECS,
		QoS:      qos.DefaultConfig(w.TotalFlows()),
		Workload: w,
		Seed:     3,
	})
	s := telemetry.Attach(n, telemetry.Options{Interval: 100, Horizon: 100_000})
	n.Run(30_000)
	before := s.Timeline().Samples()
	if avg := testing.AllocsPerRun(5_000, n.Step); avg != 0 {
		t.Errorf("%v allocs per Step with a sampler installed, want exactly 0", avg)
	}
	if s.Timeline().Samples() == before {
		t.Fatal("probe never fired during the measured window")
	}
	if s.Timeline().DroppedSamples != 0 {
		t.Fatalf("%d samples dropped: horizon undersized for the measured window", s.Timeline().DroppedSamples)
	}
}

// TestTimelineOverflowDropsInsteadOfGrowing pins the bounded-storage
// contract: ticks past the preallocated horizon are counted in
// DroppedSamples, never appended (an append would reallocate on the
// hot path).
func TestTimelineOverflowDropsInsteadOfGrowing(t *testing.T) {
	w := traffic.UniformRandom(topology.ColumnNodes, 0.03)
	n := network.MustNew(network.Config{
		Kind: topology.MeshX1, QoS: qos.DefaultConfig(w.TotalFlows()), Workload: w, Seed: 9,
	})
	s := telemetry.Attach(n, telemetry.Options{Interval: 100, Horizon: 1_000})
	n.Run(10_000)
	tl := s.Timeline()
	if tl.DroppedSamples == 0 {
		t.Fatal("test expected the horizon to overflow")
	}
	if got, max := tl.Samples(), cap(tl.At); got != max {
		t.Errorf("timeline holds %d samples with capacity %d: overflow should stop exactly at capacity", got, max)
	}
}
