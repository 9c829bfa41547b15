package chip

import (
	"testing"
	"testing/quick"
)

func newChip(t *testing.T) *Chip {
	t.Helper()
	c, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewChipValidation(t *testing.T) {
	cases := []Config{
		{Width: 1, Height: 8, SharedCols: []int{0}},
		{Width: 8, Height: 8, SharedCols: []int{9}},
		{Width: 8, Height: 8, SharedCols: []int{3, 3}},
		{Width: 8, Height: 8, SharedCols: []int{0}, CoresPerNode: 9},
		{Width: 2, Height: 2, SharedCols: []int{0, 1}},
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: bad config accepted", i)
		}
	}
}

func TestDefaultChipLayout(t *testing.T) {
	c := newChip(t)
	// 8x8 nodes x 4 terminals = 256 tiles, the paper's target scale.
	tiles := 0
	mcs := 0
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			n := c.Node(Coord{x, y})
			tiles += len(n.Terminals)
			for _, term := range n.Terminals {
				if term.Kind == TileMC {
					mcs++
				}
			}
			if (x == 4) != n.Shared {
				t.Errorf("node (%d,%d) shared=%v", x, y, n.Shared)
			}
		}
	}
	if tiles != 256 {
		t.Fatalf("%d tiles, want 256", tiles)
	}
	if mcs != 32 { // 8 shared nodes x 4 MC terminals
		t.Fatalf("%d MC tiles, want 32", mcs)
	}
	if c.Node(Coord{-1, 0}) != nil || c.Node(Coord{0, 8}) != nil {
		t.Error("out-of-bounds lookup should return nil")
	}
}

func TestXYPath(t *testing.T) {
	p := XYPath(Coord{1, 1}, Coord{3, 2})
	want := []Coord{{1, 1}, {2, 1}, {3, 1}, {3, 2}}
	if len(p) != len(want) {
		t.Fatalf("path %v, want %v", p, want)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("path %v, want %v", p, want)
		}
	}
	if q := XYPath(Coord{2, 2}, Coord{2, 2}); len(q) != 1 {
		t.Errorf("self path %v", q)
	}
}

func TestXYPathProperties(t *testing.T) {
	check := func(ax, ay, bx, by uint8) bool {
		a := Coord{int(ax % 8), int(ay % 8)}
		b := Coord{int(bx % 8), int(by % 8)}
		p := XYPath(a, b)
		if p[0] != a || p[len(p)-1] != b {
			return false
		}
		// Length = manhattan distance + 1.
		manh := abs(a.X-b.X) + abs(a.Y-b.Y)
		if len(p) != manh+1 {
			return false
		}
		// Row-first: Y never changes before X reaches b.X.
		for i := 1; i < len(p); i++ {
			if p[i].Y != p[i-1].Y && p[i-1].X != b.X {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestIsConvex(t *testing.T) {
	rect := []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}}
	if !IsConvex(rect) {
		t.Error("rectangle should be convex")
	}
	lShape := []Coord{{0, 0}, {0, 1}, {1, 1}}
	if IsConvex(lShape) {
		t.Error("L-shape must not be convex (XY route 0,0->1,1 exits it)")
	}
	if IsConvex(nil) {
		t.Error("empty region is not a valid domain")
	}
	single := []Coord{{3, 3}}
	if !IsConvex(single) {
		t.Error("single node is trivially convex")
	}
	disconnected := []Coord{{0, 0}, {2, 0}}
	if IsConvex(disconnected) {
		t.Error("disconnected region must not be convex")
	}
}

func TestRectanglesAlwaysConvexProperty(t *testing.T) {
	check := func(x0, y0, w, h uint8) bool {
		x, y := int(x0%6), int(y0%6)
		ww, hh := int(w%3)+1, int(h%3)+1
		var nodes []Coord
		for dy := 0; dy < hh; dy++ {
			for dx := 0; dx < ww; dx++ {
				nodes = append(nodes, Coord{x + dx, y + dy})
			}
		}
		return IsConvex(nodes)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAllocateDomain(t *testing.T) {
	c := newChip(t)
	d, err := c.AllocateDomain(1, []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Nodes) != 4 || c.Node(Coord{0, 0}).VM != 1 {
		t.Fatal("allocation not applied")
	}
	// Double allocation of the VM or the nodes must fail.
	if _, err := c.AllocateDomain(1, []Coord{{5, 5}}); err == nil {
		t.Error("same VM allocated twice")
	}
	if _, err := c.AllocateDomain(2, []Coord{{1, 1}}); err == nil {
		t.Error("node double-booked")
	}
	// Shared column nodes are off limits.
	if _, err := c.AllocateDomain(3, []Coord{{4, 0}}); err == nil {
		t.Error("shared column node allocated to a VM")
	}
	// Non-convex shapes are rejected.
	if _, err := c.AllocateDomain(4, []Coord{{6, 0}, {6, 1}, {7, 1}}); err == nil {
		t.Error("non-convex domain accepted")
	}
	if _, err := c.AllocateDomain(5, nil); err == nil {
		t.Error("empty domain accepted")
	}
	if _, err := c.AllocateDomain(-1, []Coord{{7, 7}}); err == nil {
		t.Error("negative VM id accepted")
	}
	if _, err := c.AllocateDomain(6, []Coord{{7, 7}, {7, 7}}); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestDomainTrafficContained(t *testing.T) {
	c := newChip(t)
	if _, err := c.AllocateDomain(1, []Coord{{0, 0}, {1, 0}, {0, 1}, {1, 1}}); err != nil {
		t.Fatal(err)
	}
	if err := c.DomainTrafficContained(1); err != nil {
		t.Errorf("convex domain leaked traffic: %v", err)
	}
	if err := c.DomainTrafficContained(9); err == nil {
		t.Error("missing VM should error")
	}
}

func TestAutoAllocate(t *testing.T) {
	c := newChip(t)
	d1, err := c.AutoAllocate(1, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.Nodes) < 6 {
		t.Fatalf("allocated %d nodes, want >= 6", len(d1.Nodes))
	}
	if !IsConvex(d1.Nodes) {
		t.Fatal("auto-allocated domain not convex")
	}
	// Fill more VMs; every allocation must be disjoint and convex.
	d2, err := c.AutoAllocate(2, 8)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[Coord]bool{}
	for _, n := range d1.Nodes {
		seen[n] = true
	}
	for _, n := range d2.Nodes {
		if seen[n] {
			t.Fatalf("node %v allocated twice", n)
		}
	}
	// The shared column can never be handed out.
	for _, d := range []*Domain{d1, d2} {
		for _, n := range d.Nodes {
			if n.X == 4 {
				t.Fatalf("shared node %v allocated", n)
			}
		}
	}
	// Exhaustion: the chip has 56 compute nodes.
	if _, err := c.AutoAllocate(3, 56); err == nil {
		t.Error("over-allocation should fail")
	}
	if _, err := c.AutoAllocate(4, 0); err == nil {
		t.Error("zero-node request should fail")
	}
}

func TestDomainsSorted(t *testing.T) {
	c := newChip(t)
	for _, vm := range []VMID{3, 1, 2} {
		if _, err := c.AutoAllocate(vm, 2); err != nil {
			t.Fatal(err)
		}
	}
	ds := c.Domains()
	if len(ds) != 3 || ds[0].VM != 1 || ds[1].VM != 2 || ds[2].VM != 3 {
		t.Fatalf("domains not sorted: %v", ds)
	}
}
