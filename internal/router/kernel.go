package router

import (
	"fmt"

	"surfbless/internal/probe"
	"surfbless/internal/shard"
)

// Step advances the network by one cycle.  It enforces the
// network.Fabric contract that Step runs with strictly increasing
// cycle numbers and relaunches due fault retransmissions, then runs
// the tile roots.  An armed fault injector forces the serial schedule:
// recovery mutates shared retry state and fault checks are ordered
// against the serial node walk.
func (k *Kernel) Step(now int64) {
	if now <= k.Now {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("%v: Step(%d) after Step(%d)", k.model, now, k.Now))
	}
	k.Now = now
	if k.recov != nil {
		k.relaunchRetries(now)
	}
	if k.pool == nil || k.Faults != nil {
		k.FX = k.serial
		k.recv(0)
		k.resolve(0)
		return
	}
	k.stepSharded()
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
	k.pool = shard.NewPool(n)
	return nil
}

// StopShards releases the worker pool and restores serial stepping.
func (k *Kernel) StopShards() {
	if k.pool != nil {
		k.pool.Close()
	}
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
	*fx = FX{evts: fx.evts[:0]}
}
