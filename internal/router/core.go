package router

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/stats"
)

// Core is the fabric-independent half of every mesh fabric: the
// per-node NIs, the NI-side packet lifecycle with its energy and
// conservation accounting, the monotonic-Step guard and NI-level fault
// recovery.  A fabric embeds one (Kernel, for fabrics that shard) and
// supplies its router node functions.
//
// Node functions report effects — meter counters, collector lifecycle
// events, the sink hand-off, the in-flight and flit counters — through
// the Core's effect methods, passing the effect context of the tile
// doing the work.  The serial context applies each effect inline; a
// shard tile's context accumulates them for replay at the cycle
// barrier (Kernel).  Deferral is exact: the meter and counters are
// linear, and replay preserves the serial call order.
type Core struct {
	Mesh geom.Mesh
	NIs  []*NI // one per node, in node-ID order

	// Faults is the armed fault injector (nil = fault-free).  Fabric code
	// tests it with the `Faults != nil` guard idiom: an armed injector
	// forces serial stepping, which shardsafe relies on (DESIGN.md §18).
	Faults *fault.Injector

	// Now is the cycle being stepped (-1 before the first Step).
	Now int64

	// FX holds one effect context per tile of the current stepping
	// schedule, so len(FX) is the tile count.  Serial stepping is tile 0
	// of 1, whose context applies effects inline.
	FX []FX

	model config.Model
	col   *stats.Collector
	meter *power.Meter
	sink  network.Sink
	probe *probe.Probe // nil = no spatial observation
	recov *Recovery    // non-nil iff Faults is

	inFlight          int
	flitsIn, flitsOut int64
}

// FX is one tile's effect context.  The serial context (direct) applies
// every effect inline; a tile context accumulates them until the
// barrier.  Node functions only pass it to the Core's effect methods.
type FX struct {
	direct bool

	bufW, bufR, xbar, alloc, lnk int64
	flitsIn, flitsOut            int64
	inFlight                     int
	evts                         []lifeEvt
}

// lifeEvt is one deferred packet lifecycle event: the collector call
// and sink hand-off a tile recorded for replay at the barrier.
type lifeEvt struct {
	node  int32
	eject bool
	p     *packet.Packet
}

// NewCore returns the core of a cfg.Model fabric on cfg's mesh, with
// one NI per node.  The collector and meter are required; sink may be
// nil when ejected packets need no consumer.
func NewCore(cfg config.Config, sink network.Sink, col *stats.Collector, meter *power.Meter) (Core, error) {
	if col == nil || meter == nil {
		return Core{}, fmt.Errorf("%v: collector and meter are required", cfg.Model)
	}
	c := Core{
		Mesh: cfg.Mesh(), Now: -1, FX: []FX{{direct: true}},
		model: cfg.Model, col: col, meter: meter, sink: sink,
	}
	c.NIs = make([]*NI, c.Mesh.Nodes())
	for i := range c.NIs {
		c.NIs[i] = NewNI(cfg.Domains, cfg.InjectionQueueCap)
	}
	return c, nil
}

// SetProbe attaches a hot-path observer recording per-router and
// per-link traversals (nil to remove).
func (c *Core) SetProbe(p *probe.Probe) { c.probe = p }

// SetFaults arms a fault injector (nil to disarm) together with the
// NI-level drop-with-retransmit recovery.  Fabrics that never lose a
// packet to a fault — WH/Surf block instead, RUNAHEAD's source timers
// recover natively — leave the retry queue empty.
func (c *Core) SetFaults(inj *fault.Injector) {
	c.Faults, c.recov = inj, nil
	if inj != nil {
		c.recov = &Recovery{MaxRetries: inj.MaxRetries(), Backoff: inj.Backoff()}
	}
}

// Offer queues p at node's NI with the standard accounting: a full
// queue counts a refusal; an accepted packet is created, written into
// the NI buffer and counted in flight.
func (c *Core) Offer(node int, p *packet.Packet, now int64) bool {
	if !c.NIs[node].Offer(p) {
		c.col.Refused(p.Domain, now)
		return false
	}
	c.col.Created(p)
	c.meter.BufferWrite(p.Size)
	c.inFlight++
	return true
}

// Begin opens cycle now: it enforces the network.Fabric contract that
// Step runs with strictly increasing cycle numbers, then relaunches
// due retransmissions.
func (c *Core) Begin(now int64) {
	if now <= c.Now {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("%v: Step(%d) after Step(%d)", c.model, now, c.Now))
	}
	c.Now = now
	if c.recov != nil {
		c.relaunchRetries(now)
	}
}

// relaunchRetries re-offers packets whose retransmission backoff
// expired to their source NI; a full NI costs another backoff round
// without consuming a retry attempt.
func (c *Core) relaunchRetries(now int64) {
	for p := c.recov.Queue.PopDue(now); p != nil; p = c.recov.Queue.PopDue(now) {
		if c.NIs[c.Mesh.ID(p.Src)].Offer(p) {
			c.meter.BufferWrite(p.Size)
		} else {
			c.recov.Queue.Push(p, now+c.recov.Backoff)
		}
	}
}

// DropOrRetry hands a fault-stricken packet to NI-level recovery:
// bounded source retransmission with backoff, then a counted drop.
// Faults force serial stepping, so it applies its effects inline and is
// only called behind a `Faults != nil` guard.
func (c *Core) DropOrRetry(p *packet.Packet, now int64) {
	if c.recov.TryRetry(p, now) {
		c.Retransmitted(p, now)
		return
	}
	c.col.Dropped(p, now)
	c.inFlight--
}

// Retransmitted reports a source retransmission of p (serial only).
func (c *Core) Retransmitted(p *packet.Packet, now int64) { c.col.Retransmitted(p, now) }

// Traverse reports one router traversal to the probe, if attached.
func (c *Core) Traverse(node int, d geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	if c.probe != nil {
		c.probe.Traverse(node, d, p, flits, deflected, now)
	}
}

// InFlight returns accepted-but-undelivered packets.
func (c *Core) InFlight() int { return c.inFlight }

// Backlog returns the packets waiting at NIs or for retransmission.
func (c *Core) Backlog() int {
	n := 0
	for _, ni := range c.NIs {
		n += ni.Backlog()
	}
	if c.recov != nil {
		n += c.recov.Queue.Len()
	}
	return n
}

// Flits returns the flits injected into the network minus those
// ejected, for fabrics that count flits (FlitIn/FlitOut).
func (c *Core) Flits() int64 { return c.flitsIn - c.flitsOut }

// ---- effects ----

// BufferWrite records n flits written into router buffers.
func (c *Core) BufferWrite(fx *FX, n int) {
	if fx.direct {
		c.meter.BufferWrite(n)
		return
	}
	fx.bufW += int64(n)
}

// BufferRead records n flits read from router or NI buffers.
func (c *Core) BufferRead(fx *FX, n int) {
	if fx.direct {
		c.meter.BufferRead(n)
		return
	}
	fx.bufR += int64(n)
}

// Crossbar records n flits crossing a crossbar.
func (c *Core) Crossbar(fx *FX, n int) {
	if fx.direct {
		c.meter.CrossbarTraversal(n)
		return
	}
	fx.xbar += int64(n)
}

// Alloc records one route/VC allocation.
func (c *Core) Alloc(fx *FX) {
	if fx.direct {
		c.meter.Allocation(1)
		return
	}
	fx.alloc++
}

// Link records n flits traversing a link.
func (c *Core) Link(fx *FX, n int) {
	if fx.direct {
		c.meter.LinkTraversal(n)
		return
	}
	fx.lnk += int64(n)
}

// Hop records a whole packet of n flits forwarded by a bufferless
// router: one allocation, then the crossbar and the output link.
func (c *Core) Hop(fx *FX, n int) {
	if fx.direct {
		c.meter.Allocation(1)
		c.meter.CrossbarTraversal(n)
		c.meter.LinkTraversal(n)
		return
	}
	fx.alloc++
	fx.xbar += int64(n)
	fx.lnk += int64(n)
}

// FlitIn counts one flit entering the network from an NI.
func (c *Core) FlitIn(fx *FX) {
	if fx.direct {
		c.flitsIn++
		return
	}
	fx.flitsIn++
}

// FlitOut counts one flit leaving the network at its destination.
func (c *Core) FlitOut(fx *FX) {
	if fx.direct {
		c.flitsOut++
		return
	}
	fx.flitsOut++
}

// Injected stamps p's first entry into the network and reports it to
// the collector; a retransmission keeps its first stamp.
func (c *Core) Injected(fx *FX, p *packet.Packet, now int64) {
	if p.InjectedAt >= 0 {
		return
	}
	p.InjectedAt = now
	if fx.direct {
		c.col.Injected(p)
		return
	}
	fx.evts = append(fx.evts, lifeEvt{p: p})
}

// Ejected stamps p's delivery at node, reports it to the collector,
// takes it out of flight and hands it to the sink.
func (c *Core) Ejected(fx *FX, node int, p *packet.Packet, now int64) {
	p.EjectedAt = now
	if fx.direct {
		c.col.Ejected(p)
		c.inFlight--
		if c.sink != nil {
			c.sink(node, p, now)
		}
		return
	}
	fx.inFlight--
	fx.evts = append(fx.evts, lifeEvt{node: int32(node), eject: true, p: p})
}
