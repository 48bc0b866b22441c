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
// The fabric is a router.Plane: the plane receives, sends and audits,
// and the fabric supplies its arbitration as a resolve root, which the
// kernel steps serially or sharded across node tiles with bit-identical
// results (SetShards; DESIGN.md §17).
package bless

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/router"
	"surfbless/internal/stats"
)

// Fabric is a BLESS mesh.  It implements network.Fabric.  Faults
// (SetFaults) break the port-count invariant on purpose, so while armed
// the fabric routes stricken packets through the kernel's
// drop-with-retransmit recovery instead of panicking.
type Fabric struct {
	router.Plane
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
	f := &Fabric{}
	if err := f.Init(cfg, cfg.HopDelay(), cfg.HopDelay(), sink, col, meter, nil, f.resolveTile); err != nil {
		return nil, err
	}
	return f, nil
}

// resolveTile runs the ejection, routing and injection of one tile's
// active routers, and keeps a router with a queued packet awake.
//
//shard:phase(resolve)
func (f *Fabric) resolveTile(t int) {
	fx := &f.FX[t]
	for _, id := range f.Active(t) {
		f.resolveNode(id, f.Nodes[id], f.Now, fx)
		f.Settle(fx, id, false)
	}
}

// resolveNode is the cycle's routing phase for one router: ejection,
// old-first output allocation with deflection, then injection, over the
// node's arrivals.
func (f *Fabric) resolveNode(id int, n *router.Node, now int64, fx *router.FX) {
	if f.Faults != nil && f.Faults.Frozen(id, now) {
		f.DropArrivals(n, now)
		return
	}
	arrivals := n.Arrivals

	// Eject the oldest packet that has reached its destination
	// (ejection bandwidth is one packet per cycle).
	ejected := -1
	for i, p := range arrivals {
		if p.Dst == n.C && (ejected < 0 || p.Older(arrivals[ejected])) {
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
		taken[d] = true
		f.Forward(fx, id, n, p, d, now)
	}

	// Injection, at the lowest priority, needs a free output.
	// Domains take turns so one domain's backlog cannot starve another's
	// (BLESS itself still provides no isolation once packets are in the
	// network).
	for off := 0; off < n.NI.Domains(); off++ {
		dom := int((now + int64(off)) % int64(n.NI.Domains()))
		p := n.NI.Head(dom)
		if p == nil {
			continue
		}
		d := f.freeOutput(id, n, p, now, &taken)
		if d < 0 {
			break // no output left this cycle
		}
		n.NI.Pop(dom)
		f.Injected(fx, p, now)
		f.BufferRead(fx, p.Size)
		taken[d] = true
		f.Forward(fx, id, n, p, d, now)
		break // one injection port
	}
}

// pickOutput returns the output direction for p: the X-Y route if free,
// otherwise another productive direction, otherwise the first free
// output in fixed port order (a deflection).  The port-count invariant
// guarantees one exists fault-free, so running out indicates a
// simulator bug and panics; with faults armed a down link can
// legitimately leave no output, reported as -1.
func (f *Fabric) pickOutput(id int, n *router.Node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := f.freeOutput(id, n, p, now, taken); d >= 0 {
		return d
	}
	if f.Faults != nil {
		return -1
	}
	//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
	panic(fmt.Sprintf("bless: no free output at %v cycle %d for %v (port balance violated)", n.C, now, p))
}

// freeOutput returns the preferred usable output for p, or -1 when
// every port is busy (legitimate for injection) or down.
func (f *Fabric) freeOutput(id int, n *router.Node, p *packet.Packet, now int64, taken *[geom.NumLinkDirs]bool) geom.Dir {
	if d := geom.XYFirst(n.C, p.Dst); d != geom.Local && !taken[d] && f.Usable(id, n, d, now) {
		return d
	}
	if d := geom.YXFirst(n.C, p.Dst); d != geom.Local && !taken[d] && f.Usable(id, n, d, now) {
		return d
	}
	for _, d := range geom.LinkDirs {
		if !taken[d] && f.Usable(id, n, d, now) {
			return d
		}
	}
	return -1
}

var _ network.Fabric = (*Fabric)(nil)
