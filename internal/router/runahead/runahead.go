// Package runahead implements a Runahead-style network, the third
// bufferless design the paper cites ([11], Li et al., HPCA 2016) —
// built as an extension alongside BLESS and CHIPPER.
//
// Runahead simplifies the router below even CHIPPER by *dropping*
// packets instead of deflecting them: each output port goes to the
// closest-to-destination requester, everyone else is discarded, and the
// router needs neither deflection logic nor port-balance guarantees.
// The original system pairs this lossy single-cycle network with a
// conventional guaranteed NoC and treats runahead delivery as a pure
// latency optimization.  This standalone reproduction supplies the
// missing guarantee with source retransmission: the network interface
// keeps a copy of every in-flight packet and re-sends it when no
// delivery acknowledgement arrives within a timeout (acknowledgements
// travel out of band — the paper's companion NoC would carry them; see
// DESIGN.md §2 for the substitution).
//
// Packets are single-flit and the hop delay is 1 cycle (the design's
// point is a single-cycle router), so uncontended latency is far below
// BLESS — and drop rate, not deflection, grows with load.
//
// The fabric is a router.Kernel like the other five.  Each source node
// keeps its own retransmission timers: they are armed only at the
// source and fire there, so a tile's timers never leave it and the
// kernel steps Runahead serially or sharded across node tiles with
// bit-identical results (SetShards; DESIGN.md §17).
package runahead

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/dueq"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/shard"
	"surfbless/internal/stats"
)

// minRetryTimeout is the shortest wait, in cycles, for the
// (out-of-band) delivery acknowledgement before a source
// retransmits.  It exceeds the worst uncontended flight time on an 8×8
// mesh (14 hops × 1 cycle) with margin for ejection serialization.
const minRetryTimeout = 32

// retryTimeout is the acknowledgement wait on mesh m: at least
// minRetryTimeout, and always longer than the longest X-Y path (W+H−2
// single-cycle hops), so a copy is delivered or dropped before its
// timer fires and two copies of a packet never coexist in the mesh.
func retryTimeout(m geom.Mesh) int64 {
	return max(minRetryTimeout, int64(m.Width+m.Height-1))
}

// Fabric is a Runahead mesh.  It implements network.Fabric.
//
// Faults (SetFaults) plug into runahead's native recovery:
// fault-stricken copies go through the same drop-and-retransmit
// machinery as congestion losses (source timers are unbounded, so a
// permanent fault on a packet's only route shows up as livelock for
// the watchdog, not as a silent loss).
type Fabric struct {
	router.Kernel
	nodes   []*node
	timeout int64 // retryTimeout(Mesh)
}

type node struct {
	c   geom.Coord
	ni  *router.NI
	in  [geom.NumLinkDirs]*link.Line[*packet.Packet]
	out [geom.NumLinkDirs]*link.Line[*packet.Packet]

	// arrivals and relaunch are per-cycle scratch owned by this node and
	// reused across cycles (DESIGN.md §12): this cycle's arrivals (at
	// most one per input port), and the packets whose timers expired.
	arrivals []*packet.Packet
	relaunch []*packet.Packet

	// timers holds one retransmission timer per packet this source
	// launched and has not yet seen acknowledged.
	timers dueq.Queue[timer]

	// Per-node counters, summed on read: copies this node sent into the
	// mesh minus copies it received, copies it dropped, and
	// retransmissions it launched.
	traveling      int
	drops, retrans int64
}

// timer is one armed retransmission timer.  It records the packet ID
// at arming: once the packet is delivered its pointer may be recycled
// into a new packet, which carries a new ID.
type timer struct {
	p  *packet.Packet
	id uint64
}

// pending reports whether the timer's packet is still undelivered.
func (e timer) pending() bool { return e.p.ID == e.id && e.p.EjectedAt < 0 }

// New builds a Runahead mesh.  The hop delay is forced to 1 cycle (the
// single-cycle router) regardless of cfg.BufferlessPipeline.
func New(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.RUNAHEAD {
		return nil, fmt.Errorf("runahead: config model is %v", cfg.Model)
	}
	f := &Fabric{timeout: retryTimeout(cfg.Mesh())}
	var err error
	if f.Kernel, err = router.NewKernel(cfg, sink, col, meter, f.receiveTile, f.resolveTile); err != nil {
		return nil, err
	}
	f.nodes = make([]*node, f.Mesh.Nodes())
	for id := range f.nodes {
		f.nodes[id] = &node{c: f.Mesh.CoordOf(id), ni: f.NIs[id]}
	}
	for _, n := range f.nodes {
		for _, d := range geom.LinkDirs {
			if !f.Mesh.HasNeighbor(n.c, d) {
				continue
			}
			l := link.New[*packet.Packet](1) // single-cycle hop
			n.out[d] = l
			f.nodes[f.Mesh.ID(n.c.Add(d))].in[d.Opposite()] = l
		}
	}
	return f, nil
}

// Inject offers p (single-flit) to node's NI.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Size != 1 {
		panic(fmt.Sprintf("runahead: cannot transfer multi-flit packet %v", p))
	}
	if p.Src == p.Dst {
		panic(fmt.Sprintf("runahead: self-addressed packet %v (deliver locally instead)", p))
	}
	return f.Offer(nodeID, p, now)
}

// Drops returns the packet copies lost to contention or faults.
func (f *Fabric) Drops() int64 {
	var s int64
	for _, n := range f.nodes {
		s += n.drops
	}
	return s
}

// Retransmissions returns the copies sources relaunched after a
// timeout.
func (f *Fabric) Retransmissions() int64 {
	var s int64
	for _, n := range f.nodes {
		s += n.retrans
	}
	return s
}

// receiveTile drains one tile's inbound link lines and collects its
// sources' expired timers.
//
//shard:phase(receive)
func (f *Fabric) receiveTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	for _, n := range f.nodes[lo:hi] {
		n.receive(f.Now)
	}
}

// resolveTile runs one tile's retransmission, ejection, forwarding and
// injection.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	lo, hi := shard.Range(len(f.nodes), len(f.FX), t)
	fx := &f.FX[t]
	for id := lo; id < hi; id++ {
		f.resolveNode(id, f.nodes[id], f.Now, fx)
	}
}

// receive is the cycle's receive phase for one router: the arrivals
// drain into scratch, and the timers due now whose packet is still
// undelivered are set aside for relaunch.  Any ejection of such a
// packet, by whichever tile, happened in an earlier cycle's resolve
// phase, so a barrier separates it from this read.
func (n *node) receive(now int64) {
	n.arrivals = n.arrivals[:0]
	for _, d := range geom.LinkDirs {
		if n.in[d] == nil {
			continue
		}
		n.arrivals = n.in[d].RecvInto(now, n.arrivals)
	}
	n.traveling -= len(n.arrivals)
	n.relaunch = n.relaunch[:0]
	for e, ok := n.timers.PopDue(now); ok; e, ok = n.timers.PopDue(now) {
		if e.pending() {
			n.relaunch = append(n.relaunch, e.p)
		}
	}
}

// arm starts p's retransmission timer at its source n.
func (f *Fabric) arm(n *node, p *packet.Packet, now int64) {
	n.timers.Push(timer{p: p, id: p.ID}, now+f.timeout)
}

// resolveNode is the cycle's routing phase for one router:
// retransmission of timed-out packets, ejection, forwarding, then
// injection.
func (f *Fabric) resolveNode(id int, n *node, now int64, fx *router.FX) {
	// Relaunch timed-out packets at the tail of their source NI; a full
	// NI queue forces another timeout round instead of losing the packet.
	for _, p := range n.relaunch {
		n.retrans++
		f.Retransmitted(fx, p, now)
		f.BufferRead(fx, 1)
		if !n.ni.Offer(p) {
			f.arm(n, p, now)
		}
	}

	// A frozen router loses every arriving copy; the source timers
	// retransmit them like any congestion drop.
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		n.drops += int64(len(n.arrivals))
		return
	}

	// Eject one arrival per cycle; extra local arrivals are dropped (the
	// source will retransmit if this was the only copy in flight).
	ejected := false
	var taken [geom.NumLinkDirs]bool
	for _, p := range n.arrivals {
		if p.Dst == n.c {
			if !ejected && p.EjectedAt < 0 {
				f.Crossbar(fx, 1)
				f.Ejected(fx, id, p, now)
				ejected = true
			} else {
				n.drops++
			}
			continue
		}
		// Forward on the X-Y output or drop: closest-to-destination wins
		// the port (deterministic tie-break on ID); a killed link drops
		// the copy like contention would.
		d := geom.XYFirst(n.c, p.Dst)
		if taken[d] || (f.Faults != nil && f.Faults.LinkDown(id, d, now)) {
			n.drops++
			continue
		}
		taken[d] = true
		f.forward(id, n, p, d, now, fx)
	}

	// Injection: one fresh packet if its X-Y port is still free.
	for off := 0; off < n.ni.Domains(); off++ {
		dom := int((now + int64(off)) % int64(n.ni.Domains()))
		p := n.ni.Head(dom)
		if p == nil {
			continue
		}
		d := geom.XYFirst(n.c, p.Dst)
		if d == geom.Local || taken[d] || n.out[d] == nil {
			continue
		}
		if f.Faults != nil && f.Faults.LinkDown(id, d, now) {
			continue // wait in the NI until the link heals
		}
		n.ni.Pop(dom)
		f.Injected(fx, p, now)
		f.BufferRead(fx, 1)
		f.forward(id, n, p, d, now, fx)
		// One retransmission timer per launch: if no delivery happens
		// within the timeout, the source sends a fresh copy.  The timeout
		// outlasts the longest X-Y path, so two copies never coexist.
		f.arm(n, p, now)
		break
	}
}

// forward sends p on output d.  Corruption at link entry loses the
// copy; the source timer recovers it.
func (f *Fabric) forward(id int, n *node, p *packet.Packet, d geom.Dir, now int64, fx *router.FX) {
	if f.Faults != nil && f.Faults.Corrupt(p, id, d, now) {
		f.Link(fx, 1)
		n.drops++
		return
	}
	p.Hops++
	n.traveling++
	f.Hop(fx, 1)
	f.Traverse(id, d, p, 1, false, now)
	n.out[d].Send(p, now)
}

// Audit verifies that every undelivered packet is queued, traveling or
// awaiting a retransmission timeout.
func (f *Fabric) Audit() error {
	queued := f.Backlog()
	traveling, pendingRetries := 0, 0
	seen := map[uint64]bool{}
	for _, n := range f.nodes {
		traveling += n.traveling
		n.timers.Each(func(e timer) {
			if e.pending() && !seen[e.id] {
				pendingRetries++
				seen[e.id] = true
			}
		})
	}
	// Every in-flight packet must be accounted at least once; copies may
	// be double-counted (queued + timer armed), so the check is a lower
	// bound plus a sanity ceiling.
	accounted := queued + traveling + pendingRetries
	if accounted < f.InFlight() {
		return fmt.Errorf("runahead: %d packets in flight but only %d accounted (queued %d, traveling %d, timers %d)",
			f.InFlight(), accounted, queued, traveling, pendingRetries)
	}
	return nil
}

var _ network.Fabric = (*Fabric)(nil)
