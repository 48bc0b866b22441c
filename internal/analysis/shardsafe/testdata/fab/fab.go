// Package fab is the clean fixture: a miniature two-phase fabric that
// uses every sanctioned confinement idiom and must produce zero
// findings.
package fab

import (
	"nocvet.example/internal/fault"
	"nocvet.example/internal/link"
	"nocvet.example/internal/packet"
	"nocvet.example/internal/power"
	"nocvet.example/internal/probe"
	"nocvet.example/internal/router"
	"nocvet.example/internal/shard"
	"nocvet.example/internal/stats"
	"nocvet.example/obs"
)

type lifeEvt struct {
	eject bool
	node  int
}

type tileFX struct {
	direct bool
	bufW   int64
	evts   []lifeEvt
	rbuf   []int
}

type node struct {
	id      int
	fifo    []int
	credits int
	in, out *link.Line
	ctr     obs.Counter
}

type Eng struct {
	router.Kernel
	nodes  []*node
	fxs    []tileFX
	tiles  int
	shNow  int64
	epoch  int64
	meter  *power.Meter
	col    *stats.Collector
	probe  *probe.Probe
	free   *packet.FreeList
	faults *fault.Injector
	sink   func(id int, now int64)
}

// recvTile drains one tile's inbound lines.
//
//shard:phase(receive)
func (e *Eng) recvTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	fx := &e.fxs[t]
	for _, n := range e.nodes[lo:hi] {
		e.receive(n, e.shNow, fx)
	}
	if t == 0 {
		e.epoch = e.shNow //nocvet:shard tile 0 is the sole writer; readers wait for the barrier
	}
}

func (e *Eng) receive(n *node, now int64, fx *tileFX) {
	fx.rbuf = n.in.RecvInto(fx.rbuf[:0], now)
	for _, v := range fx.rbuf {
		n.fifo = append(n.fifo, v)
	}
	if fx.direct {
		e.meter.BufferWrite(1)
	} else {
		fx.bufW++
	}
}

// moveTile forwards one tile's head-of-line values.
//
//shard:phase(resolve)
func (e *Eng) moveTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	for id := lo; id < hi; id++ {
		e.move(e.nodes[id], e.shNow, &e.fxs[t])
	}
}

func (e *Eng) move(n *node, now int64, fx *tileFX) {
	if e.faults != nil && e.faults.Frozen(n.id, now) {
		// Serial-only: an armed injector forces the serial walk, so
		// touching the aggregates inline here is legal.
		e.col.Ejected(now)
		e.free.Put(&packet.Packet{})
		return
	}
	if len(n.fifo) == 0 {
		return
	}
	v := n.fifo[0]
	n.fifo = n.fifo[:copy(n.fifo, n.fifo[1:])]
	n.credits--
	n.out.Send(v, now)
	if e.probe != nil {
		e.probe.Traverse(n.id, v)
	}
	if fx.direct {
		e.col.Injected(now)
		if e.sink != nil {
			e.sink(n.id, now)
		}
	} else {
		fx.evts = append(fx.evts, lifeEvt{eject: false, node: n.id})
	}
	obs.Reset(&n.ctr)
}

// wakeTile visits only the tile's woken routers: an ID ranged from
// Active(t) indexes the tile's own node.
//
//shard:phase(resolve)
func (e *Eng) wakeTile(t int) {
	for _, id := range e.Active(t) {
		e.move(e.nodes[id], e.shNow, &e.fxs[t])
		e.nodes[id].credits++
	}
}

// applyFX replays one tile's deferred effects at the barrier.
//
//shard:phase(effects)
func (e *Eng) applyFX(fx *tileFX, now int64) {
	e.meter.BufferWrite(int(fx.bufW))
	fx.bufW = 0
	for _, ev := range fx.evts {
		if ev.eject {
			e.col.Ejected(now)
		} else {
			e.col.Injected(now)
		}
		if e.sink != nil {
			e.sink(ev.node, now)
		}
	}
	fx.evts = fx.evts[:0]
	e.free.Put(&packet.Packet{})
	if e.probe != nil {
		e.probe.Flush()
	}
}
