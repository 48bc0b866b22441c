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
// The fabric is a router.Plane like BLESS, CHIPPER and SB: the plane
// receives and sends, and the fabric supplies its arbitration.  Each
// source node keeps its own retransmission timers beside the plane's
// node: they are armed only at the source and fire there, so a tile's
// timers never leave it and the kernel steps Runahead serially or
// sharded across node tiles with bit-identical results (SetShards;
// DESIGN.md §17).
package runahead

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/dueq"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
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
	router.Plane
	src     []source // one per node, beside Nodes
	timeout int64    // retryTimeout(Mesh)
}

// source is one node's retransmission state.
type source struct {
	// timers holds one retransmission timer per packet this source
	// launched and has not yet seen acknowledged.
	timers dueq.Queue[timer]

	// relaunch is per-cycle scratch reused across cycles (DESIGN.md
	// §12): the packets whose timers expired this cycle.
	relaunch []*packet.Packet

	// Counters, summed on read: copies this node dropped, and
	// retransmissions it launched.
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
	// Every hop takes one cycle: the single-cycle router.  A timer wakes
	// its source when it falls due, the kernel's longest wake.
	if err := f.Init(cfg, 1, int(f.timeout), sink, col, meter, f.receiveTile, f.resolveTile); err != nil {
		return nil, err
	}
	f.src = make([]source, len(f.Nodes))
	return f, nil
}

// Inject offers p to node's NI like the plane's Inject, and also
// panics on a self-addressed packet.
func (f *Fabric) Inject(nodeID int, p *packet.Packet, now int64) bool {
	if p.Src == p.Dst {
		panic(fmt.Sprintf("runahead: self-addressed packet %v (deliver locally instead)", p))
	}
	return f.Plane.Inject(nodeID, p, now)
}

// Drops returns the packet copies lost to contention or faults.
func (f *Fabric) Drops() int64 {
	var s int64
	for i := range f.src {
		s += f.src[i].drops
	}
	return s
}

// Retransmissions returns the copies sources relaunched after a
// timeout.
func (f *Fabric) Retransmissions() int64 {
	var s int64
	for i := range f.src {
		s += f.src[i].retrans
	}
	return s
}

// receiveTile runs the plane's receive on one tile's active nodes and
// collects their sources' expired timers.
//
//shard:phase(receive)
func (f *Fabric) receiveTile(t int) {
	for _, id := range f.Active(t) {
		f.Nodes[id].Receive(f.Now)
		f.src[id].expire(f.Now)
	}
}

// resolveTile runs the retransmission, ejection, forwarding and
// injection of one tile's active routers, and keeps a router with a
// queued packet awake.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	fx := &f.FX[t]
	for _, id := range f.Active(t) {
		f.resolveNode(id, f.Nodes[id], &f.src[id], f.Now, fx)
		f.Settle(fx, id, false)
	}
}

// expire sets aside the timers due now whose packet is still
// undelivered, for relaunch.  Every timer woke its source for the cycle
// it falls due, so none is overdue.  Any ejection of such a packet, by
// whichever tile, happened in an earlier cycle's resolve phase, so a
// barrier separates it from this read.
func (s *source) expire(now int64) {
	s.relaunch = s.relaunch[:0]
	for e, ok := s.timers.PopDue(now); ok; e, ok = s.timers.PopDue(now) {
		if e.pending() {
			s.relaunch = append(s.relaunch, e.p)
		}
	}
}

// arm starts p's retransmission timer at its source node id and wakes
// the source for the cycle it falls due.
func (f *Fabric) arm(fx *router.FX, id int, p *packet.Packet, now int64) {
	f.src[id].timers.Push(timer{p: p, id: p.ID}, now+f.timeout)
	f.Wake(fx, id, now+f.timeout)
}

// resolveNode is the cycle's routing phase for one router:
// retransmission of timed-out packets, ejection, forwarding, then
// injection.
func (f *Fabric) resolveNode(id int, n *router.Node, s *source, now int64, fx *router.FX) {
	// Relaunch timed-out packets at the tail of their source NI; a full
	// NI queue forces another timeout round instead of losing the packet.
	for _, p := range s.relaunch {
		s.retrans++
		f.Retransmitted(fx, p, now)
		f.BufferRead(fx, 1)
		if !n.NI.Offer(p) {
			f.arm(fx, id, p, now)
		}
	}

	// A frozen router loses every arriving copy; the source timers
	// retransmit them like any congestion drop.
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		s.drops += int64(len(n.Arrivals))
		return
	}

	// Eject one arrival per cycle; extra local arrivals are dropped (the
	// source will retransmit if this was the only copy in flight).
	ejected := false
	var taken [geom.NumLinkDirs]bool
	for _, p := range n.Arrivals {
		if p.Dst == n.C {
			if !ejected && p.EjectedAt < 0 {
				f.Crossbar(fx, 1)
				f.Ejected(fx, id, p, now)
				ejected = true
			} else {
				s.drops++
			}
			continue
		}
		// Forward on the X-Y output or drop: closest-to-destination wins
		// the port (deterministic tie-break on ID); a killed link drops
		// the copy like contention would.
		d := geom.XYFirst(n.C, p.Dst)
		if taken[d] || !f.Usable(id, n, d, now) {
			s.drops++
			continue
		}
		taken[d] = true
		if !f.Send(fx, id, n, p, d, now) {
			s.drops++ // corrupted at link entry; the source timer recovers it
		}
	}

	// Injection: one fresh packet if its X-Y port is still free; a
	// killed link keeps it waiting in the NI until the link heals.
	for off := 0; off < n.NI.Domains(); off++ {
		dom := int((now + int64(off)) % int64(n.NI.Domains()))
		p := n.NI.Head(dom)
		if p == nil {
			continue
		}
		d := geom.XYFirst(n.C, p.Dst)
		if d == geom.Local || taken[d] || !f.Usable(id, n, d, now) {
			continue
		}
		n.NI.Pop(dom)
		f.Injected(fx, p, now)
		f.BufferRead(fx, 1)
		if !f.Send(fx, id, n, p, d, now) {
			s.drops++
		}
		// One retransmission timer per launch: if no delivery happens
		// within the timeout, the source sends a fresh copy.  The timeout
		// outlasts the longest X-Y path, so two copies never coexist.
		f.arm(fx, id, p, now)
		break
	}
}

// Audit verifies that every undelivered packet is queued, traveling or
// awaiting a retransmission timeout.
func (f *Fabric) Audit() error {
	queued, traveling := f.Backlog(), f.Traveling()
	pendingRetries := 0
	seen := map[uint64]bool{}
	for i := range f.src {
		f.src[i].timers.Each(func(e timer) {
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
