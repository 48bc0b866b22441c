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
	"surfbless/internal/shard"
	"surfbless/internal/stats"
)

// Kernel is the fabric-independent half of every mesh fabric and its
// one stepping loop.  It owns the per-node NIs, the NI-side packet
// lifecycle with its energy and conservation accounting, the
// monotonic-Step guard and NI-level fault recovery; a fabric embeds it
// (the bufferless ones through Plane, which brings the receive root)
// and supplies its router node functions through two tile roots,
// annotated for shardsafe:
//
//	//shard:phase(receive)   drain the tile's inbound link lines
//	//shard:phase(resolve)   route the tile's routers and send on
//	                         their outbound lines
//
// Each root visits only the routers in Active(t), the routers of tile
// t that something woke for the cycle, and passes &FX[t] to its node
// functions, which report effects — meter counters, packet lifecycle
// events, the sink hand-off, the in-flight and flit counters — through
// the Kernel's effect methods, and schedule later visits through Wake
// and Settle.  The Kernel is the one source
// of packet lifecycle events: each goes to the collector and, when one
// is attached, to the probe's event ring, whose taps (trace CSV, flow
// tracker, flight recorder, span export) see the serial sequence.
// Serial stepping runs both roots once, as tile 0 of 1 with the direct
// context, which applies each effect inline.  After SetShards(n) they run tile-parallel on a
// worker pool with a barrier between the phases; each tile's context
// accumulates its effects, and the contexts replay in tile order at
// the end of the cycle.  Deferral is exact: the meter and counters are
// linear, and replay preserves the serial call order.  Each link line
// has one reader (receive) and one writer (resolve) and a delay of at
// least one cycle, so no phase observes a same-cycle write and sharded
// stepping is bit-identical to serial stepping (DESIGN.md §17).
//
// The activity calendar decides which routers a cycle visits.  It is a
// ring of node bitsets, one slot per cycle modulo a power of two larger
// than the fabric's horizon (its longest wake delay), and each tile
// writes only its own ring, through its FX.  A router is woken when a
// packet, flit or credit is sent to it, when an Offer or a retry
// relaunch queues a packet at its NI, when a timer it armed falls due,
// and by itself when it ends a visit with work left (Settle).  A router
// nothing woke holds no work, so visiting it would change nothing.
type Kernel struct {
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
	probe *probe.Probe // nil = no event stream
	recov *Recovery    // non-nil iff Faults is

	inFlight          int
	flitsIn, flitsOut int64

	recv, resolve func(tile int)
	serial        []FX // the direct context
	tiles         []FX // one deferred context per tile; nil = serial
	pool          *shard.Pool

	// cals holds the wake calendars, one per tile of the widest
	// schedule set up (cals[0] is also the serial context's): calMask+1
	// slots of calWords words each, slot now&calMask holding the
	// routers woken for cycle now.
	cals     [][]uint64
	calMask  int64
	calWords int
}

// NewKernel returns the kernel of a cfg.Model fabric on cfg's mesh,
// with one NI per node, stepping the fabric's two tile roots.  horizon
// is the longest delay, in cycles, of any wake the fabric schedules.
// The collector and meter are required; sink may be nil when ejected
// packets need no consumer.
func NewKernel(cfg config.Config, horizon int, sink network.Sink, col *stats.Collector, meter *power.Meter, recv, resolve func(tile int)) (Kernel, error) {
	if col == nil || meter == nil {
		return Kernel{}, fmt.Errorf("%v: collector and meter are required", cfg.Model)
	}
	k := Kernel{
		Mesh: cfg.Mesh(), Now: -1,
		model: cfg.Model, col: col, meter: meter, sink: sink,
		recv: recv, resolve: resolve,
	}
	k.NIs = make([]*NI, k.Mesh.Nodes())
	for i := range k.NIs {
		k.NIs[i] = NewNI(cfg.Domains, cfg.InjectionQueueCap)
	}
	slots := 2
	for slots <= horizon {
		slots <<= 1
	}
	k.calMask, k.calWords = int64(slots-1), (len(k.NIs)+63)/64
	k.cals = [][]uint64{make([]uint64, slots*k.calWords)}
	k.FX = []FX{k.tileFX(0, 1)}
	k.FX[0].direct = true
	k.serial = k.FX
	return k, nil
}

// SetProbe attaches the event ring that receives the fabric's router
// traversals and the Kernel's packet lifecycle events (nil to remove).
func (k *Kernel) SetProbe(p *probe.Probe) { k.probe = p }

// SetFaults arms a fault injector (nil to disarm) together with the
// NI-level drop-with-retransmit recovery.  Fabrics that never lose a
// packet to a fault — WH/Surf block instead, RUNAHEAD's source timers
// recover natively — leave the retry queue empty.
func (k *Kernel) SetFaults(inj *fault.Injector) {
	k.Faults, k.recov = inj, nil
	if inj != nil {
		k.recov = &Recovery{MaxRetries: inj.MaxRetries(), Backoff: inj.Backoff()}
	}
}

// FX is one tile's effect context.  The serial context (direct) applies
// every effect inline; a tile context accumulates them until the
// barrier.  Node functions only pass it to the Kernel's effect methods.
type FX struct {
	direct bool

	bufW, bufR, xbar, alloc, lnk int64
	flitsIn, flitsOut            int64
	inFlight                     int
	evts                         []lifeEvt

	cal      []uint64 // the tile's wake calendar, Kernel.cals[tile]
	active   []int    // Active's list for cycle activeAt
	activeAt int64
}

// lifeEvt is one deferred packet lifecycle event: the collector and
// probe calls and the sink hand-off a tile recorded for replay at the
// barrier.  hops and defl are the packet's counts at deferral: by the
// replay the live packet may have hopped again in the same cycle.
type lifeEvt struct {
	node       int32
	kind       probe.Kind // KindInjected, KindEjected or KindRetransmit
	hops, defl int32
	p          *packet.Packet
}

// Offer queues p at node's NI with the standard accounting: a full
// queue counts a refusal; an accepted packet is created, written into
// the NI buffer and counted in flight.
func (k *Kernel) Offer(node int, p *packet.Packet, now int64) bool {
	if !k.NIs[node].Offer(p) {
		k.col.Refused(p.Domain, now)
		if k.probe != nil {
			k.probe.Refused(p.Domain, now)
		}
		return false
	}
	k.col.Created(p)
	k.report(probe.KindCreated, p, p.CreatedAt, -1)
	k.meter.BufferWrite(p.Size)
	k.inFlight++
	k.Wake(&k.FX[0], node, k.Now+1)
	return true
}

// relaunchRetries re-offers packets whose retransmission backoff
// expired to their source NI; a full NI costs another backoff round
// without consuming a retry attempt.
func (k *Kernel) relaunchRetries(now int64) {
	for p, ok := k.recov.Queue.PopDue(now); ok; p, ok = k.recov.Queue.PopDue(now) {
		if src := k.Mesh.ID(p.Src); k.NIs[src].Offer(p) {
			k.meter.BufferWrite(p.Size)
			k.Wake(&k.FX[0], src, now)
		} else {
			k.recov.Queue.Push(p, now+k.recov.Backoff)
		}
	}
}

// DropOrRetry hands a fault-stricken packet to NI-level recovery:
// bounded source retransmission with backoff, then a counted drop.
// Faults force serial stepping, so it applies its effects inline and is
// only called behind a `Faults != nil` guard.
func (k *Kernel) DropOrRetry(p *packet.Packet, now int64) {
	if k.recov.TryRetry(p, now) {
		k.col.Retransmitted(p, now)
		k.report(probe.KindRetransmit, p, now, -1)
		return
	}
	k.col.Dropped(p, now)
	k.report(probe.KindDropped, p, now, -1)
	k.inFlight--
}

// report hands one lifecycle event, with p's counts as of now, to the
// probe if one is attached.
func (k *Kernel) report(kind probe.Kind, p *packet.Packet, cycle int64, node int) {
	if k.probe != nil {
		k.probe.Lifecycle(kind, p, cycle, node, p.Hops, p.Deflections)
	}
}

// Traverse reports one router traversal to the probe, if attached.
func (k *Kernel) Traverse(node int, d geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	if k.probe != nil {
		k.probe.Traverse(node, d, p, flits, deflected, now)
	}
}

// InFlight returns accepted-but-undelivered packets.
func (k *Kernel) InFlight() int { return k.inFlight }

// Backlog returns the packets waiting at NIs or for retransmission.
func (k *Kernel) Backlog() int {
	n := 0
	for _, ni := range k.NIs {
		n += ni.Backlog()
	}
	if k.recov != nil {
		n += k.recov.Queue.Len()
	}
	return n
}

// Flits returns the flits injected into the network minus those
// ejected, for fabrics that count flits (FlitIn/FlitOut).
func (k *Kernel) Flits() int64 { return k.flitsIn - k.flitsOut }

// ---- effects ----

// BufferWrite records n flits written into router buffers.
func (k *Kernel) BufferWrite(fx *FX, n int) {
	if fx.direct {
		k.meter.BufferWrite(n)
		return
	}
	fx.bufW += int64(n)
}

// BufferRead records n flits read from router or NI buffers.
func (k *Kernel) BufferRead(fx *FX, n int) {
	if fx.direct {
		k.meter.BufferRead(n)
		return
	}
	fx.bufR += int64(n)
}

// Crossbar records n flits crossing a crossbar.
func (k *Kernel) Crossbar(fx *FX, n int) {
	if fx.direct {
		k.meter.CrossbarTraversal(n)
		return
	}
	fx.xbar += int64(n)
}

// Alloc records one route/VC allocation.
func (k *Kernel) Alloc(fx *FX) {
	if fx.direct {
		k.meter.Allocation(1)
		return
	}
	fx.alloc++
}

// Link records n flits traversing a link.
func (k *Kernel) Link(fx *FX, n int) {
	if fx.direct {
		k.meter.LinkTraversal(n)
		return
	}
	fx.lnk += int64(n)
}

// Hop records a whole packet of n flits forwarded by a bufferless
// router: one allocation, then the crossbar and the output link.
func (k *Kernel) Hop(fx *FX, n int) {
	if fx.direct {
		k.meter.Allocation(1)
		k.meter.CrossbarTraversal(n)
		k.meter.LinkTraversal(n)
		return
	}
	fx.alloc++
	fx.xbar += int64(n)
	fx.lnk += int64(n)
}

// FlitIn counts one flit entering the network from an NI.
func (k *Kernel) FlitIn(fx *FX) {
	if fx.direct {
		k.flitsIn++
		return
	}
	fx.flitsIn++
}

// FlitOut counts one flit leaving the network at its destination.
func (k *Kernel) FlitOut(fx *FX) {
	if fx.direct {
		k.flitsOut++
		return
	}
	fx.flitsOut++
}

// Injected stamps p's first entry into the network and reports it to
// the collector; a retransmission keeps its first stamp.
func (k *Kernel) Injected(fx *FX, p *packet.Packet, now int64) {
	if p.InjectedAt >= 0 {
		return
	}
	p.InjectedAt = now
	if fx.direct {
		k.col.Injected(p)
		k.report(probe.KindInjected, p, now, -1)
		return
	}
	fx.record(probe.KindInjected, -1, p)
}

// Ejected stamps p's delivery at node, reports it to the collector,
// takes it out of flight and hands it to the sink.
func (k *Kernel) Ejected(fx *FX, node int, p *packet.Packet, now int64) {
	p.EjectedAt = now
	if fx.direct {
		k.col.Ejected(p)
		k.report(probe.KindEjected, p, now, node)
		k.inFlight--
		if k.sink != nil {
			k.sink(node, p, now)
		}
		return
	}
	fx.inFlight--
	fx.record(probe.KindEjected, node, p)
}

// Retransmitted reports a source retransmission of p.
func (k *Kernel) Retransmitted(fx *FX, p *packet.Packet, now int64) {
	if fx.direct {
		k.col.Retransmitted(p, now)
		k.report(probe.KindRetransmit, p, now, -1)
		return
	}
	fx.record(probe.KindRetransmit, -1, p)
}

// record defers one lifecycle event of p to the barrier replay, with
// p's counts as of now.
func (fx *FX) record(kind probe.Kind, node int, p *packet.Packet) {
	fx.evts = append(fx.evts, lifeEvt{node: int32(node), kind: kind, hops: int32(p.Hops), defl: int32(p.Deflections), p: p})
}
