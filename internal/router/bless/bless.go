// Package bless implements the baseline bufferless deflection network
// of Moscibroda & Mutlu [9] used as the BLESS comparator in §5.
//
// Routers have no in-network VCs: every packet arriving at a router is
// forwarded in the same cycle.  Output contention is resolved by the
// old-first arbitration policy [12] — the oldest packet picks first —
// and losers are deflected to any free output, which is always possible
// because routers have as many output as input ports.  Injection has
// the lowest priority and needs a free output port.
//
// The 2-stage router pipeline plus one link-traversal cycle are folded
// into the hop delay of the inter-router delay lines (Table 1 / §5:
// P = 3 for the bufferless networks).
//
// BLESS carries single-flit packets only: without VCs it cannot
// interleave or isolate multi-flit worms of different message classes,
// which is exactly the drawback §5.2 cites for excluding it from the
// cache-coherence experiment.  Inject panics on a multi-flit packet.
//
// The fabric is a router.Kernel: it supplies per-node collect and
// resolve functions and their two tile roots, and the kernel steps them
// serially or sharded across node tiles with bit-identical results
// (SetShards; DESIGN.md §17).
package bless

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/shard"
	"surfbless/internal/stats"
)

// Fabric is a BLESS mesh.  It implements network.Fabric.  Faults
// (SetFaults) break the port-count invariant on purpose, so while armed
// the fabric routes stricken packets through the core's
// drop-with-retransmit recovery instead of panicking.
type Fabric struct {
	router.Kernel
	nodes []*node
}

type node struct {
	c   geom.Coord
	ni  *router.NI
	in  [geom.NumLinkDirs]*link.Line[*packet.Packet] // nil on borders
	out [geom.NumLinkDirs]*link.Line[*packet.Packet]

	// arrivals is per-cycle scratch owned by this node and reused
	// across cycles (see DESIGN.md §12): at most one packet per input
	// port, so it stops growing after the first busy cycle.
	arrivals []*packet.Packet
}

// New builds a BLESS mesh for cfg.  The collector and meter must be
// non-nil; sink may be nil when ejected packets need no consumer.
func New(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.BLESS {
		return nil, fmt.Errorf("bless: config model is %v", cfg.Model)
	}
	core, err := router.NewCore(cfg, sink, col, meter)
	if err != nil {
		return nil, err
	}
	f := &Fabric{}
	f.Kernel = router.NewKernel(core, f.collectTile, f.resolveTile)
	f.nodes = make([]*node, f.Mesh.Nodes())
	for id := range f.nodes {
		f.nodes[id] = &node{c: f.Mesh.CoordOf(id), ni: f.NIs[id]}
	}
	// Wire one delay line per unidirectional link; the line delay is the
	// hop delay P (router pipeline + link traversal).
	p := cfg.HopDelay()
	for _, n := range f.nodes {
		for _, d := range geom.LinkDirs {
			if !f.Mesh.HasNeighbor(n.c, d) {
				continue
			}
			l := link.New[*packet.Packet](p)
			n.out[d] = l
			f.nodes[f.Mesh.ID(n.c.Add(d))].in[d.Opposite()] = l
		}
	}
	return f, nil
}

// Inject offers p to node's NI.  It panics on multi-flit packets (see
// the package comment) and returns false under backpressure.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Size != 1 {
		panic(fmt.Sprintf("bless: cannot transfer multi-flit packet %v (no VCs to interleave worms)", p))
	}
	return f.Offer(nodeID, p, now)
}

// collectTile drains one tile's inbound link lines.
//
//shard:phase(receive)
func (f *Fabric) collectTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	for _, n := range f.nodes[lo:hi] {
		n.collect(f.Now)
	}
}

// resolveTile runs one tile's ejection, routing and injection.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	fx := &f.FX[t]
	for id := lo; id < hi; id++ {
		f.resolveNode(id, f.nodes[id], f.Now, fx)
	}
}

// collect is the cycle's receive phase for one router: this cycle's
// arrivals (at most one per in-link) drain into the node's reused
// scratch buffer.
func (n *node) collect(now int64) {
	n.arrivals = n.arrivals[:0]
	for _, d := range geom.LinkDirs {
		if n.in[d] == nil || n.in[d].Idle() {
			continue
		}
		n.arrivals = n.in[d].RecvInto(now, n.arrivals)
	}
}

// resolveNode is the cycle's routing phase for one router: ejection,
// old-first output allocation with deflection, then injection, over the
// arrivals collect gathered.
func (f *Fabric) resolveNode(id int, n *node, now int64, fx *router.FX) {
	arrivals := n.arrivals

	// A frozen router's pipeline is dead: the links above were still
	// drained (they demand collection), but every arrival is lost at the
	// input and recovered via source retransmission.
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		for _, p := range arrivals {
			f.DropOrRetry(p, now)
		}
		return
	}

	// Eject the oldest packet that has reached its destination
	// (ejection bandwidth is one packet per cycle).
	ejected := -1
	for i, p := range arrivals {
		if p.Dst == n.c && (ejected < 0 || p.Older(arrivals[ejected])) {
			ejected = i
		}
	}
	if ejected >= 0 {
		p := arrivals[ejected]
		f.Crossbar(fx, p.Size)
		f.Ejected(fx, id, p, now)
		arrivals = append(arrivals[:ejected], arrivals[ejected+1:]...)
	}

	// Old-first output allocation with deflection.
	router.SortOldestFirst(arrivals)
	var taken [geom.NumLinkDirs]bool
	for _, p := range arrivals {
		d := f.pickOutput(id, n, p, now, &taken)
		if d < 0 {
			// Only possible with faults armed: a link is down.
			if f.Faults != nil {
				f.DropOrRetry(p, now)
			}
			continue
		}
		f.forward(id, n, p, d, now, &taken, fx)
	}

	// Injection, at the lowest priority, needs a free output.
	// Domains take turns so one domain's backlog cannot starve another's
	// (BLESS itself still provides no isolation once packets are in the
	// network).
	for off := 0; off < n.ni.Domains(); off++ {
		dom := int((now + int64(off)) % int64(n.ni.Domains()))
		p := n.ni.Head(dom)
		if p == nil {
			continue
		}
		d := f.freeOutput(id, n, p, now, &taken)
		if d < 0 {
			break // no output left this cycle
		}
		n.ni.Pop(dom)
		f.Injected(fx, p, now)
		f.BufferRead(fx, p.Size)
		f.forward(id, n, p, d, now, &taken, fx)
		break // one injection port
	}
}

// pickOutput returns the output direction for p: the X-Y route if free,
// otherwise another productive direction, otherwise the first free
// output in fixed port order (a deflection).  The port-count invariant
// guarantees one exists fault-free, so running out indicates a
// simulator bug and panics; with faults armed a down link can
// legitimately leave no output, reported as -1.
func (f *Fabric) pickOutput(id int, n *node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := f.freeOutput(id, n, p, now, taken); d >= 0 {
		return d
	}
	if f.Faults != nil {
		return -1
	}
	//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
	panic(fmt.Sprintf("bless: no free output at %v cycle %d for %v (port balance violated)", n.c, now, p))
}

// freeOutput returns the preferred usable output for p, or -1 when
// every port is busy (legitimate for injection) or down.
func (f *Fabric) freeOutput(id int, n *node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := geom.XYFirst(n.c, p.Dst); f.usable(id, n, d, now, taken) {
		return d
	}
	if d := geom.YXFirst(n.c, p.Dst); f.usable(id, n, d, now, taken) {
		return d
	}
	for _, d := range geom.LinkDirs {
		if f.usable(id, n, d, now, taken) {
			return d
		}
	}
	return -1
}

// usable reports whether output d of node id exists, is unclaimed this
// cycle, and is not killed by a fault.
func (f *Fabric) usable(id int, n *node, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool) bool {
	if d == geom.Local || n.out[d] == nil || taken[d] {
		return false
	}
	return f.Faults == nil || !f.Faults.LinkDown(id, d, now)
}

func (f *Fabric) forward(id int, n *node, p *packet.Packet, d geom.Dir, now int64, taken *[geom.NumLinkDirs]bool, fx *router.FX) {
	taken[d] = true
	// Corruption is modeled at link entry: the flit burned the wire but
	// fails its CRC and never reaches the neighbor.
	if f.Faults != nil && f.Faults.Corrupt(p, id, d, now) {
		f.Link(fx, p.Size)
		f.DropOrRetry(p, now)
		return
	}
	p.Hops++
	deflected := !geom.Productive(n.c, p.Dst, d)
	if deflected {
		p.Deflections++
	}
	f.Hop(fx, p.Size)
	f.Traverse(id, d, p, p.Size, deflected, now)
	n.out[d].Send(p, now)
}

// Audit verifies that NI queues plus link occupancy account for every
// in-flight packet (bufferless routers hold no state between cycles).
func (f *Fabric) Audit() error {
	n := f.Backlog()
	for _, nd := range f.nodes {
		for _, l := range nd.out {
			if l != nil {
				n += l.InFlight()
			}
		}
	}
	if n != f.InFlight() {
		return fmt.Errorf("bless: %d packets in queues+links, %d in flight", n, f.InFlight())
	}
	return nil
}

var _ network.Fabric = (*Fabric)(nil)
