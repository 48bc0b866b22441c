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
package runahead

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/link"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/stats"
)

// retryTimeout is the cycles a source waits for the (out-of-band)
// delivery acknowledgement before retransmitting.  It exceeds the
// worst uncontended flight time on an 8×8 mesh (14 hops × 1 cycle)
// with margin for ejection serialization.
const retryTimeout = 32

// Fabric is a Runahead mesh.  It implements network.Fabric.
//
// Faults (SetFaults) plug into runahead's native recovery:
// fault-stricken copies go through the same drop-and-retransmit
// machinery as congestion losses (source timers are unbounded, so a
// permanent fault on a packet's only route shows up as livelock for
// the watchdog, not as a silent loss).
type Fabric struct {
	router.Core
	nodes []*node

	retries  retryHeap
	retrySeq int64

	traveling       int // copies currently inside the mesh
	Drops           int64
	Retransmissions int64
}

type node struct {
	c   geom.Coord
	ni  *router.NI
	in  [geom.NumLinkDirs]*link.Line[*packet.Packet]
	out [geom.NumLinkDirs]*link.Line[*packet.Packet]

	// arrivals is per-cycle scratch owned by this node and reused
	// across cycles (DESIGN.md §12): at most one packet per input port.
	arrivals []*packet.Packet
}

// retryEntry tracks one undelivered packet awaiting its timeout.
type retryEntry struct {
	at  int64
	seq int64
	p   *packet.Packet
}

// retryHeap is a binary min-heap on (at, seq), maintained by the
// pushRetry/popRetry sift functions below rather than container/heap:
// heap.Push/Pop box every retryEntry into an interface value, which
// would heap-allocate on every single injection (timers are armed on
// the hot path).
type retryHeap []retryEntry

func (h retryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// pushRetry arms a retransmission timer, sifting it into heap position.
// The self-append reuses the heap's backing array at steady state; it
// only grows during warm-up.
func (f *Fabric) pushRetry(e retryEntry) {
	f.retries = append(f.retries, e)
	h := f.retries
	for i := len(h) - 1; i > 0; {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// popRetry removes and returns the earliest-due timer.
func (f *Fabric) popRetry() retryEntry {
	h := f.retries
	n := len(h) - 1
	e := h[0]
	h[0] = h[n]
	h[n] = retryEntry{} // unpin the packet from the vacated slot
	h = h[:n]
	for i := 0; ; {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	f.retries = h
	return e
}

// New builds a Runahead mesh.  The hop delay is forced to 1 cycle (the
// single-cycle router) regardless of cfg.BufferlessPipeline.
func New(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (*Fabric, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Model != config.RUNAHEAD {
		return nil, fmt.Errorf("runahead: config model is %v", cfg.Model)
	}
	core, err := router.NewCore(cfg, sink, col, meter)
	if err != nil {
		return nil, err
	}
	f := &Fabric{Core: core}
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

// Step advances the network by one cycle.
func (f *Fabric) Step(now int64) {
	f.Begin(now)
	fx := &f.FX[0]

	// Retransmit timed-out packets by re-queueing them at their source
	// NI ahead of fresh traffic (a retried packet is older).
	for len(f.retries) > 0 && f.retries[0].at <= now {
		e := f.popRetry()
		if e.p.EjectedAt >= 0 {
			continue // delivered in the meantime
		}
		f.Retransmissions++
		f.Retransmitted(e.p, now)
		f.BufferRead(fx, 1)
		f.launch(f.NIs[f.Mesh.ID(e.p.Src)], e.p, now)
	}

	for id, n := range f.nodes {
		f.stepNode(id, n, now, fx)
	}
}

func (f *Fabric) stepNode(id int, n *node, now int64, fx *router.FX) {
	arrivals := n.arrivals[:0]
	for _, d := range geom.LinkDirs {
		if n.in[d] == nil {
			continue
		}
		arrivals = n.in[d].RecvInto(now, arrivals)
	}
	n.arrivals = arrivals
	f.traveling -= len(arrivals)

	// A frozen router loses every arriving copy; the source timers
	// retransmit them like any congestion drop.
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		for _, p := range arrivals {
			f.drop(p)
		}
		return
	}

	// Eject one arrival per cycle; extra local arrivals are dropped (the
	// source will retransmit if this was the only copy in flight).
	ejected := false
	var taken [geom.NumLinkDirs]bool
	for _, p := range arrivals {
		if p.Dst == n.c {
			if !ejected && p.EjectedAt < 0 {
				f.Crossbar(fx, 1)
				f.Ejected(fx, id, p, now)
				ejected = true
			} else {
				f.drop(p)
			}
			continue
		}
		// Forward on the X-Y output or drop: closest-to-destination wins
		// the port (deterministic tie-break on ID); a killed link drops
		// the copy like contention would.
		d := geom.XYFirst(n.c, p.Dst)
		if taken[d] || (f.Faults != nil && f.Faults.LinkDown(id, d, now)) {
			f.drop(p)
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
		// within the timeout, the source sends a fresh copy.  A copy
		// lives at most 2(N−1) < retryTimeout cycles (X-Y only, single
		// cycle hops), so two copies never coexist in the mesh.
		f.pushRetry(retryEntry{at: now + retryTimeout, seq: f.retrySeq, p: p})
		f.retrySeq++
		break
	}
}

// launch (re)sends a packet from its source: straight onto the mesh
// next cycle via the NI queue head position.
func (f *Fabric) launch(ni *router.NI, p *packet.Packet, now int64) {
	// Re-offer at the front is approximated by a plain offer; a full NI
	// queue forces another timeout round instead of losing the packet.
	if !ni.Offer(p) {
		f.pushRetry(retryEntry{at: now + retryTimeout, seq: f.retrySeq, p: p})
		f.retrySeq++
	}
}

func (f *Fabric) forward(id int, n *node, p *packet.Packet, d geom.Dir, now int64, fx *router.FX) {
	// Corruption at link entry: the copy is lost, the timer recovers it.
	if f.Faults != nil && f.Faults.Corrupt(p, id, d, now) {
		f.Link(fx, 1)
		f.drop(p)
		return
	}
	p.Hops++
	f.traveling++
	f.Hop(fx, 1)
	f.Traverse(id, d, p, 1, false, now)
	n.out[d].Send(p, now)
}

func (f *Fabric) drop(p *packet.Packet) {
	f.Drops++
	// The copy vanishes; the retry heap still holds the packet and the
	// timeout will relaunch it from the source.
}

// Audit verifies that every undelivered packet is queued, traveling or
// awaiting a retransmission timeout.
func (f *Fabric) Audit() error {
	queued := f.Backlog()
	pendingRetries := 0
	seen := map[uint64]bool{}
	for _, e := range f.retries {
		if e.p.EjectedAt < 0 && !seen[e.p.ID] {
			pendingRetries++
			seen[e.p.ID] = true
		}
	}
	// Every in-flight packet must be accounted at least once; copies may
	// be double-counted (queued + timer armed), so the check is a lower
	// bound plus a sanity ceiling.
	accounted := queued + f.traveling + pendingRetries
	if accounted < f.InFlight() {
		return fmt.Errorf("runahead: %d packets in flight but only %d accounted (queued %d, traveling %d, timers %d)",
			f.InFlight(), accounted, queued, f.traveling, pendingRetries)
	}
	return nil
}

var _ network.Fabric = (*Fabric)(nil)
