package router

import "surfbless/internal/shard"

// Kernel is a Core that steps its mesh as contiguous node tiles.  The
// fabric supplies two tile roots, annotated for shardsafe:
//
//	//shard:phase(receive)   drain the tile's inbound link lines
//	//shard:phase(resolve)   route the tile's routers and send on
//	                         their outbound lines
//
// Each root covers shard.Range(nodes, len(FX), t) and passes &FX[t] to
// its node functions.  Serial stepping runs both roots once, as tile 0
// of 1 with the direct context.  After SetShards(n) they run
// tile-parallel on a worker pool with a barrier between the phases,
// and the tiles' deferred effects replay in tile order at the end of
// the cycle.  Each link line has one reader (receive) and one writer
// (resolve) and a delay of at least one cycle, so no phase observes a
// same-cycle write and sharded stepping is bit-identical to serial
// stepping (DESIGN.md §17).
type Kernel struct {
	Core
	recv, resolve func(tile int)
	serial        []FX // the direct context
	tiles         []FX // one deferred context per tile; nil = serial
	pool          *shard.Pool
}

// NewKernel wraps c with the fabric's two tile roots.
func NewKernel(c Core, recv, resolve func(tile int)) Kernel {
	return Kernel{Core: c, recv: recv, resolve: resolve, serial: c.FX}
}

// Step advances the network by one cycle.  An armed fault injector
// forces the serial schedule: recovery mutates shared retry state and
// fault checks are ordered against the serial node walk.
func (k *Kernel) Step(now int64) {
	k.Begin(now)
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
// and in-flight counters, then the lifecycle replay — collector calls
// and sink hand-offs in recorded order.  Tile order is the serial node
// order, so observers see the serial event sequence.
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
		if ev.eject {
			k.col.Ejected(ev.p)
			if k.sink != nil {
				k.sink(int(ev.node), ev.p, k.Now)
			}
		} else {
			k.col.Injected(ev.p)
		}
		ev.p = nil
	}
	*fx = FX{evts: fx.evts[:0]}
}
