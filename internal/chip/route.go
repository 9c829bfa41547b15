package chip

import (
	"fmt"
	"sort"
)

// ChannelClass distinguishes how a route segment is protected.
type ChannelClass uint8

const (
	// RowChannel is a MECS point-to-multipoint row channel, owned by
	// its source node: it needs no QoS because only the (co-scheduled,
	// friendly) terminals of one node ever inject into it.
	RowChannel ChannelClass = iota
	// ColumnChannel is a column channel outside the shared regions:
	// usable only by intra-domain traffic, isolation comes from the
	// convex-domain rule.
	ColumnChannel
	// SharedColumnChannel is a channel inside a shared column: the only
	// place flows from different VMs merge, protected by hardware QoS.
	SharedColumnChannel
)

func (c ChannelClass) String() string {
	switch c {
	case RowChannel:
		return "row"
	case ColumnChannel:
		return "column"
	case SharedColumnChannel:
		return "shared-column"
	default:
		return "channel"
	}
}

// Channel identifies one physical channel: the MECS express channel owned
// by a source node in a direction. Dir is +1/-1 along the axis.
type Channel struct {
	Owner Coord
	// Row is true for a horizontal (X-axis) channel.
	Row bool
	Dir int
}

// Class returns the protection class of the channel on this chip. Every
// output of a QoS-equipped shared-column router is protected — including
// its row channels, which carry inter-VM traffic back out of the column —
// because the 'Q' routers of Figure 1(b) arbitrate all of their ports
// under PVC.
func (c *Chip) Class(ch Channel) ChannelClass {
	if c.IsShared(ch.Owner) {
		return SharedColumnChannel
	}
	if ch.Row {
		return RowChannel
	}
	return ColumnChannel
}

// Hop is one MECS express traversal: a single channel carries the packet
// from the channel owner to Dest without switching at intermediate nodes.
type Hop struct {
	Ch   Channel
	Dest Coord
}

// Route is a sequence of express hops.
type Route struct {
	Src, Dst Coord
	Hops     []Hop
}

// dirTo returns the unit step from a to b along one axis.
func dirTo(a, b int) int {
	switch {
	case b > a:
		return 1
	case b < a:
		return -1
	default:
		return 0
	}
}

// DirectRoute is plain XY dimension-order MECS routing: at most one row
// hop then one column hop. It is legal for intra-domain traffic and for
// reaching a shared column (whose column hop is QoS-protected).
func DirectRoute(src, dst Coord) Route {
	r := Route{Src: src, Dst: dst}
	at := src
	if dx := dirTo(src.X, dst.X); dx != 0 {
		next := Coord{dst.X, src.Y}
		r.Hops = append(r.Hops, Hop{Ch: Channel{Owner: at, Row: true, Dir: dx}, Dest: next})
		at = next
	}
	if dy := dirTo(src.Y, dst.Y); dy != 0 {
		r.Hops = append(r.Hops, Hop{Ch: Channel{Owner: at, Row: false, Dir: dy}, Dest: dst})
	}
	return r
}

// NearestSharedCol returns the shared column closest to x.
func (c *Chip) NearestSharedCol(x int) (int, error) {
	if len(c.cfg.SharedCols) == 0 {
		return 0, fmt.Errorf("chip: no shared columns configured")
	}
	best, bestDist := 0, 1<<30
	cols := append([]int(nil), c.cfg.SharedCols...)
	sort.Ints(cols)
	for _, col := range cols {
		d := col - x
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = col, d
		}
	}
	return best, nil
}

// RouteToShared routes a node's memory traffic to a terminal in a shared
// column: a single dedicated row hop (physically isolated), then the
// QoS-protected column. This is the architecture's key property — the
// richly connected topology reaches the protected region without crossing
// any other node's switches.
func (c *Chip) RouteToShared(src Coord, sharedCol, dstY int) (Route, error) {
	if !c.IsShared(Coord{sharedCol, 0}) {
		return Route{}, fmt.Errorf("chip: column %d is not shared", sharedCol)
	}
	return DirectRoute(src, Coord{sharedCol, dstY}), nil
}

// RouteInterVM routes communication between different VMs. Per Section 2.2
// it must transit a QoS-equipped shared column even when that is
// non-minimal, so the turn never happens inside a third VM's domain:
// row hop into the shared column, QoS-protected column hop to the
// destination's row, then a row hop out.
func (c *Chip) RouteInterVM(src, dst Coord) (Route, error) {
	col, err := c.NearestSharedCol(src.X)
	if err != nil {
		return Route{}, err
	}
	r := Route{Src: src, Dst: dst}
	at := src
	if at.X != col {
		next := Coord{col, at.Y}
		r.Hops = append(r.Hops, Hop{Ch: Channel{Owner: at, Row: true, Dir: dirTo(at.X, col)}, Dest: next})
		at = next
	}
	if at.Y != dst.Y {
		next := Coord{col, dst.Y}
		r.Hops = append(r.Hops, Hop{Ch: Channel{Owner: at, Row: false, Dir: dirTo(at.Y, dst.Y)}, Dest: next})
		at = next
	}
	if at.X != dst.X {
		r.Hops = append(r.Hops, Hop{Ch: Channel{Owner: at, Row: true, Dir: dirTo(at.X, dst.X)}, Dest: dst})
	}
	return r, nil
}

// Flow is one chip-level traffic flow for isolation analysis.
type Flow struct {
	VM    VMID
	Route Route
}

// Violation reports two VMs meeting on an unprotected channel.
type Violation struct {
	Ch       Channel
	Class    ChannelClass
	VMa, VMb VMID
}

func (v Violation) Error() string {
	return fmt.Sprintf("chip: VMs %d and %d share unprotected %s channel owned by %v",
		v.VMa, v.VMb, v.Class, v.Ch.Owner)
}

// VerifyIsolation checks the architecture's central safety property over a
// set of flows: any channel carrying traffic of more than one VM must be a
// QoS-protected shared-column channel. Row channels are owned by their
// source node, whose terminals are co-scheduled to a single VM, so a row
// channel carrying two VMs indicates a scheduling violation; an
// unprotected column channel carrying two VMs indicates a domain-shape
// violation.
func (c *Chip) VerifyIsolation(flows []Flow) []Violation {
	users := map[Channel][]VMID{}
	var order []Channel
	for _, f := range flows {
		for _, h := range f.Route.Hops {
			prev := users[h.Ch]
			dup := false
			for _, vm := range prev {
				if vm == f.VM {
					dup = true
					break
				}
			}
			if !dup {
				if len(prev) == 0 {
					order = append(order, h.Ch)
				}
				users[h.Ch] = append(prev, f.VM)
			}
		}
	}
	var out []Violation
	for _, ch := range order {
		vms := users[ch]
		if len(vms) < 2 {
			continue
		}
		if c.Class(ch) == SharedColumnChannel {
			continue // hardware QoS arbitrates here by design
		}
		out = append(out, Violation{Ch: ch, Class: c.Class(ch), VMa: vms[0], VMb: vms[1]})
	}
	return out
}

// DomainTrafficContained verifies that every intra-domain route of a VM
// stays inside its convex domain (the property AllocateDomain's convexity
// check is designed to guarantee).
func (c *Chip) DomainTrafficContained(vm VMID) error {
	d := c.domains[vm]
	if d == nil {
		return fmt.Errorf("chip: VM %d has no domain", vm)
	}
	set := map[Coord]bool{}
	for _, n := range d.Nodes {
		set[n] = true
	}
	for _, a := range d.Nodes {
		for _, b := range d.Nodes {
			for _, at := range XYPath(a, b) {
				if !set[at] {
					return fmt.Errorf("chip: VM %d route %v->%v escapes its domain at %v", vm, a, b, at)
				}
			}
		}
	}
	return nil
}
