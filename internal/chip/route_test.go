package chip

import (
	"testing"
	"testing/quick"

	"tanoq/internal/topology"
)

// routeNodes lists every node coordinate a route switches at (the
// endpoints of each hop; intermediate drop-off points are passed on the
// wire without switching).
func routeNodes(r Route) []Coord {
	out := []Coord{r.Src}
	for _, h := range r.Hops {
		out = append(out, h.Dest)
	}
	return out
}

func TestDirectRouteIsAtMostTwoHops(t *testing.T) {
	check := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 8), int(ay % 8)}
		b := Coord{int(bx % 8), int(by % 8)}
		r := DirectRoute(a, b)
		if len(r.Hops) > 2 {
			return false
		}
		nodes := routeNodes(r)
		return nodes[len(nodes)-1] == b && nodes[0] == a
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestDirectRouteRowThenColumn(t *testing.T) {
	r := DirectRoute(Coord{1, 2}, Coord{6, 5})
	if len(r.Hops) != 2 {
		t.Fatalf("%d hops, want 2", len(r.Hops))
	}
	if !r.Hops[0].Ch.Row || r.Hops[1].Ch.Row {
		t.Fatal("XY order violated")
	}
	if r.Hops[0].Dest != (Coord{6, 2}) {
		t.Fatalf("turn at %v, want (6,2)", r.Hops[0].Dest)
	}
	// Channel ownership: each hop's channel belongs to the node it
	// departs from (point-to-multipoint).
	if r.Hops[0].Ch.Owner != (Coord{1, 2}) || r.Hops[1].Ch.Owner != (Coord{6, 2}) {
		t.Fatal("channel ownership wrong")
	}
}

func TestSingleHopReachabilityToSharedColumn(t *testing.T) {
	// The architecture's key topological property: every node reaches
	// its row's shared-column node in ONE express hop, crossing no other
	// node's switches.
	c := newChip(t)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if x == 4 {
				continue
			}
			r, err := c.RouteToShared(Coord{x, y}, 4, y)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Hops) != 1 {
				t.Fatalf("(%d,%d) needs %d hops to its shared node, want 1", x, y, len(r.Hops))
			}
			if c.Class(r.Hops[0].Ch) != RowChannel {
				t.Fatal("row access should use an unprotected dedicated row channel")
			}
		}
	}
}

func TestRouteToSharedRejectsComputeColumn(t *testing.T) {
	c := newChip(t)
	if _, err := c.RouteToShared(Coord{0, 0}, 3, 5); err == nil {
		t.Fatal("routing to a non-shared column accepted")
	}
}

func TestRouteToSharedColumnHopIsProtected(t *testing.T) {
	c := newChip(t)
	r, err := c.RouteToShared(Coord{1, 2}, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Hops) != 2 {
		t.Fatalf("%d hops", len(r.Hops))
	}
	if c.Class(r.Hops[1].Ch) != SharedColumnChannel {
		t.Fatalf("column hop class %v, want shared-column", c.Class(r.Hops[1].Ch))
	}
}

func TestRouteInterVMTransitsSharedColumn(t *testing.T) {
	// The Figure 1(b) scenario: VM #1's top-left node talks to VM #3's
	// bottom-right node; direct XY routing would turn inside VM #2, so
	// the route must detour through the shared column.
	c := newChip(t)
	r, err := c.RouteInterVM(Coord{0, 0}, Coord{7, 7})
	if err != nil {
		t.Fatal(err)
	}
	// Any vertical movement must happen inside the shared column.
	for _, h := range r.Hops {
		if !h.Ch.Row && c.Class(h.Ch) != SharedColumnChannel {
			t.Fatalf("inter-VM column hop outside shared region: %+v", h)
		}
	}
	nodes := routeNodes(r)
	if nodes[len(nodes)-1] != (Coord{7, 7}) {
		t.Fatal("route does not reach destination")
	}
	// Non-minimal is expected and accepted: hop count may exceed 2.
	if len(r.Hops) != 3 {
		t.Fatalf("expected 3 hops (in, down, out), got %d", len(r.Hops))
	}
}

func TestRouteInterVMSameRow(t *testing.T) {
	c := newChip(t)
	r, err := c.RouteInterVM(Coord{0, 3}, Coord{7, 3})
	if err != nil {
		t.Fatal(err)
	}
	// Same row: into the column, no vertical hop, out.
	for _, h := range r.Hops {
		if !h.Ch.Row {
			t.Fatal("same-row inter-VM route should not move vertically")
		}
	}
	if got := routeNodes(r); got[len(got)-1] != (Coord{7, 3}) {
		t.Fatal("route does not terminate at destination")
	}
}

func TestVerifyIsolationPassesForLegalTraffic(t *testing.T) {
	c := newChip(t)
	if _, err := c.AllocateDomain(1, []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateDomain(2, []Coord{{5, 0}, {6, 0}, {5, 1}, {6, 1}}); err != nil {
		t.Fatal(err)
	}
	var flows []Flow
	// Intra-domain traffic for both VMs.
	flows = append(flows, Flow{VM: 1, Route: DirectRoute(Coord{0, 0}, Coord{1, 1})})
	flows = append(flows, Flow{VM: 2, Route: DirectRoute(Coord{5, 0}, Coord{6, 1})})
	// Memory traffic from both VMs into the shared column.
	r1, _ := c.RouteToShared(Coord{1, 0}, 4, 3)
	r2, _ := c.RouteToShared(Coord{5, 1}, 4, 3)
	flows = append(flows, Flow{VM: 1, Route: r1}, Flow{VM: 2, Route: r2})
	// Inter-VM communication through the protected column.
	r3, _ := c.RouteInterVM(Coord{1, 1}, Coord{5, 0})
	flows = append(flows, Flow{VM: 1, Route: r3})
	if v := c.VerifyIsolation(flows); len(v) != 0 {
		t.Fatalf("legal traffic flagged: %v", v)
	}
}

func TestVerifyIsolationCatchesIllegalTurn(t *testing.T) {
	// Direct XY routing between different VMs turns on an unprotected
	// column channel — exactly the interference Section 2.2 forbids.
	c := newChip(t)
	flows := []Flow{
		{VM: 1, Route: DirectRoute(Coord{0, 0}, Coord{7, 7})},
		{VM: 2, Route: DirectRoute(Coord{6, 1}, Coord{7, 6})},
	}
	// Both routes use the column channels of x=7 owned by (7,0)/(7,1):
	// craft overlap by sending VM 2 from the same turn node.
	flows = append(flows, Flow{VM: 2, Route: DirectRoute(Coord{5, 0}, Coord{7, 5})})
	v := c.VerifyIsolation(append(flows, Flow{VM: 1, Route: DirectRoute(Coord{3, 0}, Coord{7, 5})}))
	if len(v) == 0 {
		t.Fatal("cross-VM unprotected sharing not detected")
	}
	if v[0].Error() == "" {
		t.Fatal("violation must describe itself")
	}
}

func TestVerifyIsolationAllowsSharedColumnMerging(t *testing.T) {
	c := newChip(t)
	r1, _ := c.RouteToShared(Coord{0, 0}, 4, 7)
	r2, _ := c.RouteToShared(Coord{4, 0}, 4, 7) // the shared node itself
	flows := []Flow{{VM: 1, Route: r1}, {VM: 2, Route: r2}}
	if v := c.VerifyIsolation(flows); len(v) != 0 {
		t.Fatalf("QoS-protected merging flagged: %v", v)
	}
}

func TestNearestSharedCol(t *testing.T) {
	c, err := New(Config{Width: 8, Height: 8, SharedCols: []int{2, 6}})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[int]int{0: 2, 2: 2, 3: 2, 5: 6, 7: 6}
	for x, want := range cases {
		got, err := c.NearestSharedCol(x)
		if err != nil || got != want {
			t.Errorf("NearestSharedCol(%d) = %d (%v), want %d", x, got, err, want)
		}
	}
	empty, err := New(Config{Width: 4, Height: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := empty.NearestSharedCol(0); err == nil {
		t.Error("chip without shared columns should error")
	}
}

func TestChannelClassStrings(t *testing.T) {
	if RowChannel.String() != "row" || ColumnChannel.String() != "column" ||
		SharedColumnChannel.String() != "shared-column" {
		t.Error("channel class strings wrong")
	}
}

func TestColumnInjectorMapping(t *testing.T) {
	c := newChip(t)
	// The shared node's own terminal is injector 0.
	node, inj, err := c.ColumnInjector(Coord{4, 3}, 4)
	if err != nil || node != 3 || inj != 0 {
		t.Fatalf("shared node maps to (%d,%d) err %v", node, inj, err)
	}
	// Row inputs rank by X, skipping the shared column.
	node, inj, err = c.ColumnInjector(Coord{0, 5}, 4)
	if err != nil || node != 5 || inj != 1 {
		t.Fatalf("(0,5) maps to (%d,%d) err %v", node, inj, err)
	}
	node, inj, err = c.ColumnInjector(Coord{5, 5}, 4)
	if err != nil || node != 5 || inj != 5 {
		t.Fatalf("(5,5) maps to (%d,%d) err %v, want injector 5", node, inj, err)
	}
	node, inj, err = c.ColumnInjector(Coord{7, 0}, 4)
	if err != nil || node != 0 || inj != 7 {
		t.Fatalf("(7,0) maps to (%d,%d) err %v, want injector 7", node, inj, err)
	}
	if _, _, err := c.ColumnInjector(Coord{0, 0}, 3); err == nil {
		t.Error("non-shared column accepted")
	}
	if _, _, err := c.ColumnInjector(Coord{-1, 0}, 4); err == nil {
		t.Error("out-of-grid source accepted")
	}
}

func TestColumnInjectorsAreUniquePerRow(t *testing.T) {
	c := newChip(t)
	for y := 0; y < 8; y++ {
		seen := map[int]bool{}
		for x := 0; x < 8; x++ {
			_, inj, err := c.ColumnInjector(Coord{x, y}, 4)
			if err != nil {
				t.Fatal(err)
			}
			if seen[inj] {
				t.Fatalf("row %d: injector %d assigned twice", y, inj)
			}
			if inj < 0 || inj >= topology.InjectorsPerNode {
				t.Fatalf("injector %d out of range", inj)
			}
			seen[inj] = true
		}
	}
}

func TestScheduleThreads(t *testing.T) {
	c := newChip(t)
	if _, err := c.AllocateDomain(1, []Coord{{0, 0}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	// 2 nodes x 2 cores = 4 thread slots.
	if err := c.ScheduleThreads(1, []int{10, 11, 12, 13}); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyCoScheduling(); err != nil {
		t.Fatal(err)
	}
	// Over capacity fails.
	if _, err := c.AllocateDomain(2, []Coord{{3, 3}}); err != nil {
		t.Fatal(err)
	}
	if err := c.ScheduleThreads(2, []int{1, 2, 3}); err == nil {
		t.Error("over-capacity scheduling accepted")
	}
	// Unknown VM fails.
	if err := c.ScheduleThreads(9, []int{1}); err == nil {
		t.Error("scheduling on missing domain accepted")
	}
	// Double-scheduling the same cores fails.
	if err := c.ScheduleThreads(1, []int{20}); err == nil {
		t.Error("double-scheduled core accepted")
	}
}

func TestVMRates(t *testing.T) {
	c := newChip(t)
	if _, err := c.AllocateDomain(1, []Coord{{0, 0}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AllocateDomain(2, []Coord{{0, 4}, {1, 4}, {0, 5}, {1, 5}}); err != nil {
		t.Fatal(err)
	}
	rates, err := c.VMRates(4, map[VMID]float64{1: 0.5, 2: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if len(rates) != 64 {
		t.Fatalf("rates len %d", len(rates))
	}
	f1, _ := c.ColumnFlow(Coord{0, 0}, 4)
	f2, _ := c.ColumnFlow(Coord{0, 4}, 4)
	if rates[f1] != 0.25 { // 0.5 over 2 nodes
		t.Errorf("VM1 per-node rate %v, want 0.25", rates[f1])
	}
	if rates[f2] != 0.0625 { // 0.25 over 4 nodes
		t.Errorf("VM2 per-node rate %v, want 0.0625", rates[f2])
	}
	// All rates strictly positive (PVC requirement).
	for f, r := range rates {
		if r <= 0 {
			t.Fatalf("flow %d rate %v not positive", f, r)
		}
	}
	// Error paths.
	if _, err := c.VMRates(3, map[VMID]float64{1: 0.5}); err == nil {
		t.Error("non-shared column accepted")
	}
	if _, err := c.VMRates(4, map[VMID]float64{9: 0.5}); err == nil {
		t.Error("missing VM accepted")
	}
	if _, err := c.VMRates(4, map[VMID]float64{1: 0}); err == nil {
		t.Error("zero share accepted")
	}
}
