package network_test

import (
	"testing"

	"tanoq/internal/network"
	"tanoq/internal/qos"
	"tanoq/internal/topology"
	"tanoq/internal/traffic"
)

// TestBlockedRoundsMechanicallyEquivalent pins roundBlocked to the serve
// loop it cuts short: answering "nobody can be granted" in one pass over
// the remaining candidates is bit-identical to refusing them one by one in
// priority order. The verdict-memo matrix runs with the shortcut on and
// off and must produce the same fingerprints, and so must two more PVC
// cells per topology whose 2 000-cycle frame exhausts every quota: all 64
// flows inject, so refused candidates meet non-compliant occupants and
// live victims. One of the two provisions its flows 1-16x: with equal
// rates every flow's hysteresis step is equal, a worse bid never has a
// lower threshold than a better one, and the victim half of roundBlocked's
// test never decides. Those two cells must have been answered both ways —
// "nobody can" and "somebody still can" — so the comparison cannot pass
// vacuously (the default frame outlasts the matrix cells, whose traffic
// therefore stays rate-compliant and rarely leaves a second candidate a
// way).
func TestBlockedRoundsMechanicallyEquivalent(t *testing.T) {
	defer network.SetBlockedShortcut(true)
	nodes := topology.ColumnNodes
	shortFrame := func(c *qos.Config) { c.FrameCycles = 2_000 }
	weighted := func(c *qos.Config) {
		shortFrame(c)
		for f := range c.Rates {
			c.Rates[f] *= float64(1 + 5*(f%4)) // hysteresis steps differ per flow
		}
	}
	matrix := verdictCells()
	cells := append(matrix,
		verdictCell{"hotspot-frame2000", true, openCellTuned(traffic.Hotspot(nodes, 0.12).WithStop(6_000), nil, shortFrame)},
		verdictCell{"weighted-frame2000", true, openCellTuned(traffic.UniformRandom(nodes, 0.14).WithStop(6_000), nil, weighted)})
	for _, kind := range topology.Kinds() {
		for _, mode := range []qos.Mode{qos.PVC, qos.PerFlowQueue, qos.NoQoS} {
			for i, cell := range cells {
				exhausted := i >= len(matrix)
				if exhausted && mode != qos.PVC {
					continue
				}
				t.Run(kind.String()+"/"+mode.String()+"/"+cell.name, func(t *testing.T) {
					run := func(shortcut bool) (fp string, nobody, somebody uint64) {
						network.SetBlockedShortcut(shortcut)
						n, extra := cell.run(t, kind, mode)
						nobody, somebody = n.BlockedRoundAnswers()
						return cellFingerprint(n, extra), nobody, somebody
					}
					tried, a, b := run(false)
					asked, nobody, somebody := run(true)
					if a+b != 0 {
						t.Errorf("shortcut disabled, yet it answered %d rounds", a+b)
					}
					if tried != asked {
						t.Errorf("blocked-round shortcut changed results (%d + %d rounds answered):\ntried: %s\nasked: %s", nobody, somebody, tried, asked)
					}
					if exhausted && (nobody == 0 || somebody == 0) {
						t.Errorf("%d rounds answered \"nobody can\", %d \"somebody still can\": the comparison needs both", nobody, somebody)
					}
				})
			}
		}
	}
}
