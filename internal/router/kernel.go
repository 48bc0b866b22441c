package router

import (
	"fmt"
	"math/bits"

	"surfbless/internal/probe"
	"surfbless/internal/shard"
)

// Step advances the network by one cycle.  It enforces the
// network.Fabric contract that Step runs with strictly increasing
// cycle numbers and relaunches due fault retransmissions, then runs
// the tile roots, and clears the cycle's calendar slot.  Wakes for
// cycles a gap skipped fall due now.  An armed fault injector forces
// the serial schedule: recovery mutates shared retry state and fault
// checks are ordered against the serial node walk.
func (k *Kernel) Step(now int64) {
	if now <= k.Now {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("%v: Step(%d) after Step(%d)", k.model, now, k.Now))
	}
	for c := max(k.Now+1, now-k.calMask); c < now; c++ {
		k.foldSlot(c, now)
	}
	k.Now = now
	if k.recov != nil {
		k.relaunchRetries(now)
	}
	if k.pool == nil || k.Faults != nil {
		k.FX = k.serial
		k.recv(0)
		k.resolve(0)
	} else {
		k.stepSharded()
	}
	base := int(now&k.calMask) * k.calWords
	for _, c := range k.cals {
		clear(c[base : base+k.calWords])
	}
}

// Wake schedules node's router for a visit at cycle at, in fx's
// calendar.  at must lie after the cycle being stepped and at most the
// kernel's horizon beyond it; a wake before a Step's phases (an Offer
// or a retry relaunch) may name that Step's cycle.
func (k *Kernel) Wake(fx *FX, node int, at int64) {
	fx.cal[int(at&k.calMask)*k.calWords+node>>6] |= 1 << uint(node&63)
}

// Settle ends node's visit of the cycle: a router left busy, or whose
// NI still queues a packet, is woken for the next cycle.
func (k *Kernel) Settle(fx *FX, node int, busy bool) {
	if busy || k.NIs[node].Backlog() > 0 {
		k.Wake(fx, node, k.Now+1)
	}
}

// Active returns, in ascending node order, the routers of tile t that
// were woken for the cycle being stepped: every tile's calendar slot
// for the cycle, ORed over the tile's nodes.  The list is tile t's
// scratch, built by the cycle's first call and kept until the next
// Step.  The tile roots visit exactly these routers.
func (k *Kernel) Active(t int) []int {
	fx := &k.FX[t]
	if fx.activeAt == k.Now {
		return fx.active
	}
	lo, hi := shard.Range(len(k.NIs), len(k.FX), t)
	base := int(k.Now&k.calMask) * k.calWords
	ids := fx.active[:0]
	for w := lo >> 6; w<<6 < hi; w++ {
		var m uint64
		for _, c := range k.cals {
			m |= c[base+w]
		}
		if off := lo - w<<6; off > 0 {
			m &= ^uint64(0) << uint(off)
		}
		if end := hi - w<<6; end < 64 {
			m &= 1<<uint(end) - 1
		}
		for ; m != 0; m &= m - 1 {
			ids = append(ids, w<<6|bits.TrailingZeros64(m))
		}
	}
	fx.active, fx.activeAt = ids, k.Now
	return ids
}

// tileFX returns the effect context of tile t of n, with its calendar
// and the capacity its Active list needs.
func (k *Kernel) tileFX(t, n int) FX {
	lo, hi := shard.Range(len(k.NIs), n, t)
	return FX{cal: k.cals[t], active: make([]int, 0, hi-lo), activeAt: -1}
}

// foldSlot moves the wakes of cycle from, which no Step ran, into
// cycle to's slot on every calendar.
func (k *Kernel) foldSlot(from, to int64) {
	src, dst := int(from&k.calMask)*k.calWords, int(to&k.calMask)*k.calWords
	for _, c := range k.cals {
		for w := range k.calWords {
			c[dst+w] |= c[src+w]
			c[src+w] = 0
		}
	}
}

// stepSharded runs one cycle tile-parallel: receive on every tile,
// barrier, resolve on every tile, barrier, then the tiles' effects
// replay in tile order.
func (k *Kernel) stepSharded() {
	k.FX = k.tiles
	k.pool.Run(len(k.FX), k.recv)
	k.pool.Run(len(k.FX), k.resolve)
	for t := range k.FX {
		k.applyFX(&k.FX[t])
	}
	// Drain the probe's per-router ring segments at the barrier, every
	// cycle: workers only append to their own tiles' segments, and a
	// cycle adds a bounded handful of events per router — far below the
	// minimum segment capacity — so the flush-on-full path (which folds
	// into shared state) never runs inside a worker.
	if k.probe != nil {
		k.probe.Flush()
	}
}

// SetShards partitions stepping across n contiguous node tiles driven
// by a persistent worker pool (n ≤ 1 restores serial stepping; n is
// clamped to the node count).  Call StopShards (sim.Run does) to
// release the pool's goroutines.
func (k *Kernel) SetShards(n int) error {
	k.StopShards()
	n = min(n, len(k.NIs))
	if n <= 1 {
		return nil
	}
	k.tiles = make([]FX, n)
	for t := range k.tiles {
		if t == len(k.cals) {
			k.cals = append(k.cals, make([]uint64, len(k.cals[0])))
		}
		k.tiles[t] = k.tileFX(t, n)
	}
	k.pool = shard.NewPool(n)
	return nil
}

// StopShards releases the worker pool and restores serial stepping,
// folding the tiles' pending wakes into the serial calendar.
func (k *Kernel) StopShards() {
	if k.pool != nil {
		k.pool.Close()
	}
	for _, c := range k.cals[1:] {
		for i, w := range c {
			k.cals[0][i] |= w
		}
	}
	k.cals = k.cals[:1]
	k.pool, k.tiles, k.FX = nil, nil, k.serial
}

// applyFX merges one tile's deferred effects: meter counters, the flit
// and in-flight counters, then the lifecycle replay — collector and
// probe calls and sink hand-offs in recorded order, the probe getting
// the counts recorded at deferral.  Tile order is the serial node
// order, so the collector and the event ring see the serial sequence.
//
//shard:phase(effects)
func (k *Kernel) applyFX(fx *FX) {
	k.meter.BufferWrite(int(fx.bufW))
	k.meter.BufferRead(int(fx.bufR))
	k.meter.CrossbarTraversal(int(fx.xbar))
	k.meter.Allocation(int(fx.alloc))
	k.meter.LinkTraversal(int(fx.lnk))
	k.flitsIn += fx.flitsIn
	k.flitsOut += fx.flitsOut
	k.inFlight += fx.inFlight
	for i := range fx.evts {
		ev := &fx.evts[i]
		switch ev.kind {
		case probe.KindInjected:
			k.col.Injected(ev.p)
		case probe.KindEjected:
			k.col.Ejected(ev.p)
		case probe.KindRetransmit:
			k.col.Retransmitted(ev.p, k.Now)
		}
		if k.probe != nil {
			k.probe.Lifecycle(ev.kind, ev.p, k.Now, int(ev.node), int(ev.hops), int(ev.defl))
		}
		if ev.kind == probe.KindEjected && k.sink != nil {
			k.sink(int(ev.node), ev.p, k.Now)
		}
		ev.p = nil
	}
	*fx = FX{evts: fx.evts[:0], cal: fx.cal, active: fx.active, activeAt: fx.activeAt}
}
