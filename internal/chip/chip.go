// Package chip models the paper's target system (Section 2): a 256-tile
// chip multiprocessor reduced to an 8x8 grid of network nodes by four-way
// concentration, interconnected by MECS express channels, with shared
// resources (memory controllers, accelerators) segregated into dedicated
// QoS-protected columns.
//
// The package implements the architecture's three pillars:
//
//   - Topology: single-hop reachability from any node to a shared column
//     over a dedicated point-to-multipoint row channel, giving physical
//     isolation for memory traffic outside the protected region;
//   - Shared regions: identification of which channels require hardware
//     QoS (only those inside shared columns), for the chip-wide cost
//     accounting;
//   - OS support: allocation of virtual machines into convex domains,
//     co-scheduling of friendly threads onto nodes, and verification that
//     the resulting traffic can never interfere across VMs outside the
//     protected region.
package chip

import (
	"fmt"
	"sort"
)

// VMID identifies a virtual machine (or application) sharing the chip.
type VMID int

// NoVM marks unallocated resources.
const NoVM VMID = -1

// Coord locates a network node on the chip's node grid.
type Coord struct{ X, Y int }

func (c Coord) String() string { return fmt.Sprintf("(%d,%d)", c.X, c.Y) }

// TileKind is the resource type of one terminal (tile) at a node.
type TileKind uint8

const (
	TileCore TileKind = iota
	TileCache
	TileMC // memory controller (shared columns only)
)

func (k TileKind) String() string {
	switch k {
	case TileCore:
		return "core"
	case TileCache:
		return "cache"
	case TileMC:
		return "mc"
	default:
		return "tile"
	}
}

// Concentration is the paper's four-way concentration: four terminals
// share each network node through a fast crossbar.
const Concentration = 4

// Terminal is one tile at a node.
type Terminal struct {
	Kind TileKind
	// Thread is the scheduled software thread (-1 when idle or the
	// tile is not a core).
	Thread int
}

// Node is one network node: four terminals behind one router.
type Node struct {
	Coord  Coord
	Shared bool // lives in a shared-resource column
	// VM owns all four terminals (the co-scheduling rule: only threads
	// of the same application or VM run on a node).
	VM        VMID
	Terminals [Concentration]Terminal
}

// Cores returns how many core tiles the node has.
func (n *Node) Cores() int {
	c := 0
	for _, t := range n.Terminals {
		if t.Kind == TileCore {
			c++
		}
	}
	return c
}

// Config describes a chip.
type Config struct {
	// Width and Height of the node grid (8x8 for the 256-tile target).
	Width, Height int
	// SharedCols are the X coordinates of the shared-resource columns.
	SharedCols []int
	// CoresPerNode (remaining terminals are cache tiles). Default 2.
	CoresPerNode int
}

// DefaultConfig is the paper's target: a 256-tile CMP as an 8x8 grid of
// 4-way concentrated nodes with one shared column in the middle.
func DefaultConfig() Config {
	return Config{Width: 8, Height: 8, SharedCols: []int{4}, CoresPerNode: 2}
}

// Domain is a VM's allocation: a convex set of nodes.
type Domain struct {
	VM    VMID
	Nodes []Coord
}

// Chip is the allocated state of one CMP.
type Chip struct {
	cfg     Config
	nodes   [][]*Node // [y][x]
	domains map[VMID]*Domain
}

// New builds a chip. Shared columns hold memory-controller terminals; the
// remaining nodes mix core and cache tiles.
func New(cfg Config) (*Chip, error) {
	if cfg.Width < 2 || cfg.Height < 2 {
		return nil, fmt.Errorf("chip: grid %dx%d too small", cfg.Width, cfg.Height)
	}
	if cfg.CoresPerNode == 0 {
		cfg.CoresPerNode = 2
	}
	if cfg.CoresPerNode < 0 || cfg.CoresPerNode > Concentration {
		return nil, fmt.Errorf("chip: %d cores per node with %d terminals", cfg.CoresPerNode, Concentration)
	}
	shared := map[int]bool{}
	for _, c := range cfg.SharedCols {
		if c < 0 || c >= cfg.Width {
			return nil, fmt.Errorf("chip: shared column %d outside grid width %d", c, cfg.Width)
		}
		if shared[c] {
			return nil, fmt.Errorf("chip: duplicate shared column %d", c)
		}
		shared[c] = true
	}
	if len(shared) == len(cfg.SharedCols) && len(shared) == cfg.Width {
		return nil, fmt.Errorf("chip: every column shared leaves no compute nodes")
	}
	ch := &Chip{cfg: cfg, domains: map[VMID]*Domain{}}
	for y := 0; y < cfg.Height; y++ {
		row := make([]*Node, cfg.Width)
		for x := 0; x < cfg.Width; x++ {
			n := &Node{Coord: Coord{x, y}, VM: NoVM, Shared: shared[x]}
			for i := range n.Terminals {
				kind := TileCache
				if n.Shared {
					kind = TileMC
				} else if i < cfg.CoresPerNode {
					kind = TileCore
				}
				n.Terminals[i] = Terminal{Kind: kind, Thread: -1}
			}
			row[x] = n
		}
		ch.nodes = append(ch.nodes, row)
	}
	return ch, nil
}

// Node returns the node at a coordinate (nil outside the grid).
func (c *Chip) Node(at Coord) *Node {
	if !c.inBounds(at) {
		return nil
	}
	return c.nodes[at.Y][at.X]
}

func (c *Chip) inBounds(at Coord) bool {
	return at.X >= 0 && at.X < c.cfg.Width && at.Y >= 0 && at.Y < c.cfg.Height
}

// IsShared reports whether a coordinate lies in a shared column.
func (c *Chip) IsShared(at Coord) bool {
	n := c.Node(at)
	return n != nil && n.Shared
}

// Domain returns a VM's allocation (nil if none).
func (c *Chip) Domain(vm VMID) *Domain { return c.domains[vm] }

// Domains returns all allocations ordered by VM id.
func (c *Chip) Domains() []*Domain {
	out := make([]*Domain, 0, len(c.domains))
	for _, d := range c.domains {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VM < out[j].VM })
	return out
}

// XYPath returns the XY dimension-order route from a to b as the node
// coordinates traversed, inclusive of endpoints: along the row first,
// then the column — the order the MECS interconnect routes in.
func XYPath(a, b Coord) []Coord {
	path := []Coord{a}
	at := a
	for at.X != b.X {
		if b.X > at.X {
			at.X++
		} else {
			at.X--
		}
		path = append(path, at)
	}
	for at.Y != b.Y {
		if b.Y > at.Y {
			at.Y++
		} else {
			at.Y--
		}
		path = append(path, at)
	}
	return path
}

// containsAll reports whether every coordinate of path is in the set.
func containsAll(set map[Coord]bool, path []Coord) bool {
	for _, p := range path {
		if !set[p] {
			return false
		}
	}
	return true
}

// IsConvex implements the paper's convex-shape property for a candidate
// domain: for every pair of member nodes, the XY dimension-order route
// between them stays inside the set — so intra-VM cache traffic can never
// leave the allocated region. (A rectangle always qualifies; an L-shape
// generally does not.)
func IsConvex(nodes []Coord) bool {
	if len(nodes) == 0 {
		return false
	}
	set := make(map[Coord]bool, len(nodes))
	for _, n := range nodes {
		set[n] = true
	}
	for _, a := range nodes {
		for _, b := range nodes {
			if !containsAll(set, XYPath(a, b)) {
				return false
			}
		}
	}
	return true
}

// AllocateDomain assigns the given nodes to a VM, enforcing the OS
// contract: nodes must exist, be compute nodes (not shared columns), be
// unowned, and form a convex region.
func (c *Chip) AllocateDomain(vm VMID, nodes []Coord) (*Domain, error) {
	if vm < 0 {
		return nil, fmt.Errorf("chip: invalid VM id %d", vm)
	}
	if _, ok := c.domains[vm]; ok {
		return nil, fmt.Errorf("chip: VM %d already has a domain", vm)
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("chip: empty domain for VM %d", vm)
	}
	seen := map[Coord]bool{}
	for _, at := range nodes {
		n := c.Node(at)
		if n == nil {
			return nil, fmt.Errorf("chip: node %v outside grid", at)
		}
		if n.Shared {
			return nil, fmt.Errorf("chip: node %v is in a shared column", at)
		}
		if n.VM != NoVM {
			return nil, fmt.Errorf("chip: node %v already owned by VM %d", at, n.VM)
		}
		if seen[at] {
			return nil, fmt.Errorf("chip: node %v listed twice", at)
		}
		seen[at] = true
	}
	if !IsConvex(nodes) {
		return nil, fmt.Errorf("chip: domain for VM %d is not convex", vm)
	}
	d := &Domain{VM: vm, Nodes: append([]Coord(nil), nodes...)}
	for _, at := range nodes {
		c.Node(at).VM = vm
	}
	c.domains[vm] = d
	return d, nil
}

// AutoAllocate finds a free rectangular region of at least the requested
// node count and allocates it to the VM (rectangles trivially satisfy the
// convexity property). It scans candidate shapes nearest to square first.
func (c *Chip) AutoAllocate(vm VMID, nodeCount int) (*Domain, error) {
	if nodeCount <= 0 {
		return nil, fmt.Errorf("chip: requested %d nodes", nodeCount)
	}
	type shape struct{ w, h int }
	var shapes []shape
	for h := 1; h <= c.cfg.Height; h++ {
		w := (nodeCount + h - 1) / h
		if w <= c.cfg.Width {
			shapes = append(shapes, shape{w, h})
		}
	}
	// Prefer the smallest area (least over-allocation), then the most
	// square shape (minimal perimeter keeps intra-domain distance low).
	// A full rectangle is allocated even when it slightly exceeds the
	// request — truncating a rectangle breaks the convexity contract.
	sort.Slice(shapes, func(i, j int) bool {
		ai, aj := shapes[i].w*shapes[i].h, shapes[j].w*shapes[j].h
		if ai != aj {
			return ai < aj
		}
		return shapes[i].w+shapes[i].h < shapes[j].w+shapes[j].h
	})
	for _, s := range shapes {
		for y := 0; y+s.h <= c.cfg.Height; y++ {
			for x := 0; x+s.w <= c.cfg.Width; x++ {
				nodes := c.freeRect(x, y, s.w, s.h)
				if nodes == nil {
					continue
				}
				return c.AllocateDomain(vm, nodes)
			}
		}
	}
	return nil, fmt.Errorf("chip: no free convex region of %d nodes for VM %d", nodeCount, vm)
}

// freeRect returns the nodes of a rectangle if every node in it is free
// and outside shared columns; nil otherwise. Rows are truncated in the
// last row only if the remainder still forms a convex shape (we keep it
// simple: full rectangles only).
func (c *Chip) freeRect(x, y, w, h int) []Coord {
	var nodes []Coord
	for dy := 0; dy < h; dy++ {
		for dx := 0; dx < w; dx++ {
			at := Coord{x + dx, y + dy}
			n := c.Node(at)
			if n == nil || n.Shared || n.VM != NoVM {
				return nil
			}
			nodes = append(nodes, at)
		}
	}
	return nodes
}
