package router

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/stats"
)

// Plane is the packet plane of the bufferless fabrics (BLESS, CHIPPER,
// SB, RUNAHEAD): a Kernel plus one router Node per mesh node, wired to
// its neighbours by whole-packet link lines of one hop delay.  The
// router pipeline and the link traversal are folded into that delay, so
// a router holds no packet between cycles.  The plane owns the receive
// phase, the send step, the frozen-router drop and the conservation
// audit; a fabric embeds it and supplies only its arbitration, a
// resolve root that ejects, picks outputs and injects.
type Plane struct {
	Kernel
	Nodes []*Node // one per node, in node-ID order
	hop   int64
}

// Node is one bufferless router of a Plane.
type Node struct {
	C  geom.Coord
	NI *NI

	// In and Out are the router's link lines by port, nil where the mesh
	// has no neighbour: Out[d] is the neighbour's In[d.Opposite()].
	In, Out [geom.NumLinkDirs]*link.Line[*packet.Packet]

	// Arrivals lists the arrivals of the cycle the router was last
	// visited in, in input-port order N, E, S, W, and From[i] is the
	// port Arrivals[i] came in on.  Arrivals is scratch owned by the
	// node and reused across cycles (DESIGN.md §12): a router receives
	// at most one packet per input port, so it stops growing after the
	// first busy cycle.  A fabric's resolve may reorder or shrink it,
	// after which From no longer lines up; the next receive rebuilds
	// both.  A cycle that does not visit the router leaves both as they
	// were.
	Arrivals []*packet.Packet
	From     [geom.NumLinkDirs]geom.Dir
}

// Init builds p's kernel for cfg and wires its nodes with lines of hop
// cycles' delay.  horizon is the longest wake delay (NewKernel), at
// least hop.  recv is the fabric's receive root, or nil for the plane's
// own; resolve is the fabric's arbitration root.  A fabric's own
// receive root must call Receive on each of its tile's active nodes.
func (p *Plane) Init(cfg config.Config, hop, horizon int, sink network.Sink, col *stats.Collector, meter *power.Meter, recv, resolve func(tile int)) error {
	if recv == nil {
		recv = p.receiveTile
	}
	var err error
	if p.Kernel, err = NewKernel(cfg, max(hop, horizon), sink, col, meter, recv, resolve); err != nil {
		return err
	}
	p.hop = int64(hop)
	p.Nodes = make([]*Node, p.Mesh.Nodes())
	for id := range p.Nodes {
		p.Nodes[id] = &Node{C: p.Mesh.CoordOf(id), NI: p.NIs[id]}
	}
	for _, n := range p.Nodes {
		for _, d := range geom.LinkDirs {
			if !p.Mesh.HasNeighbor(n.C, d) {
				continue
			}
			l := link.New[*packet.Packet](hop)
			n.Out[d] = l
			p.Nodes[p.Mesh.ID(n.C.Add(d))].In[d.Opposite()] = l
		}
	}
	return nil
}

// Inject offers q to node's NI and returns false under backpressure.
// Without virtual channels to interleave worms, the bufferless fabrics
// carry single-flit packets only, so it panics on a larger one; SB
// overrides it with its per-domain slot widths.
func (p *Plane) Inject(node int, q *packet.Packet, now int64) bool {
	if q.Size != 1 {
		panic(fmt.Sprintf("%v: cannot transfer multi-flit packet %v", p.model, q))
	}
	return p.Offer(node, q, now)
}

// receiveTile drains the inbound link lines of one tile's active
// routers.
//
//shard:phase(receive)
func (p *Plane) receiveTile(t int) {
	for _, id := range p.Active(t) {
		p.Nodes[id].Receive(p.Now)
	}
}

// Receive is the cycle's receive phase for one router: the packets due
// now on its inbound lines drain into Arrivals, and their ports into
// From.
func (n *Node) Receive(now int64) {
	n.Arrivals = n.Arrivals[:0]
	for d, l := range &n.In {
		if l == nil || l.Idle() {
			continue
		}
		i := len(n.Arrivals)
		n.Arrivals = l.RecvInto(now, n.Arrivals)
		for ; i < len(n.Arrivals); i++ {
			n.From[i] = geom.Dir(d)
		}
	}
}

// Usable reports whether output d of node id exists and its link is not
// down.  d must be a link direction, not Local.
func (p *Plane) Usable(id int, n *Node, d geom.Dir, now int64) bool {
	if n.Out[d] == nil {
		return false
	}
	return p.Faults == nil || !p.Faults.LinkDown(id, d, now)
}

// Send forwards q from node id on output d: it counts the hop, and a
// deflection when d is not productive, charges the hop's energy,
// reports the traversal, puts q on the line and wakes the neighbour
// for q's arrival.  With faults armed, q
// may be corrupted at link entry instead: it burns the wire but fails
// its CRC and never reaches the neighbour, and Send returns false.
func (p *Plane) Send(fx *FX, id int, n *Node, q *packet.Packet, d geom.Dir, now int64) bool {
	if p.Faults != nil && p.Faults.Corrupt(q, id, d, now) {
		p.Link(fx, q.Size)
		return false
	}
	q.Hops++
	deflected := !geom.Productive(n.C, q.Dst, d)
	if deflected {
		q.Deflections++
	}
	p.Hop(fx, q.Size)
	p.Traverse(id, d, q, q.Size, deflected, now)
	n.Out[d].Send(q, now)
	p.Wake(fx, p.Mesh.ID(n.C.Add(d)), now+p.hop)
	return true
}

// Forward is Send for the deflection fabrics, which hand a packet lost
// at link entry to the kernel's NI recovery.
func (p *Plane) Forward(fx *FX, id int, n *Node, q *packet.Packet, d geom.Dir, now int64) {
	if !p.Send(fx, id, n, q, d, now) && p.Faults != nil {
		p.DropOrRetry(q, now)
	}
}

// DropArrivals hands every arrival at n to DropOrRetry.  A frozen
// router's pipeline is dead: its inbound lines were still drained, but
// nothing ejects, forwards or injects until the freeze repairs.  Like
// DropOrRetry, it is only called behind a `Faults != nil` guard.
func (p *Plane) DropArrivals(n *Node, now int64) {
	for _, q := range n.Arrivals {
		p.DropOrRetry(q, now)
	}
}

// Traveling returns the packets on the plane's link lines.
func (p *Plane) Traveling() int {
	t := 0
	for _, n := range p.Nodes {
		for _, l := range n.Out {
			if l != nil {
				t += l.InFlight()
			}
		}
	}
	return t
}

// Audit verifies that NI queues plus link occupancy account for every
// in-flight packet.
func (p *Plane) Audit() error {
	if n := p.Backlog() + p.Traveling(); n != p.InFlight() {
		return fmt.Errorf("%v: %d packets in queues+links, %d in flight", p.model, n, p.InFlight())
	}
	return nil
}
