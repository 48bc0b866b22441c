// Package shard partitions per-cycle fabric work across a persistent
// worker pool so giant meshes (32×32 and beyond) step in parallel.
//
// The intended shape is a two-phase barrier schedule (DESIGN.md §17):
// a fabric splits its node array into contiguous tiles, runs phase R
// (drain inbound link lines) over every tile, barriers, then runs
// phase F (allocate/arbitrate/forward, sending on outbound lines) over
// every tile.  Each link line has exactly one reader (phase R) and one
// writer (phase F) and a delay of at least one cycle, so the phases
// never observe same-cycle writes and the parallel schedule is
// bit-identical to the serial one.  Cross-cutting effects (meters,
// collector lifecycle events, global counters) are accumulated
// per-tile and replayed in tile order at the barrier (router.Kernel).
//
// Pool workers are persistent goroutines signalled over channels; a
// steady-state Run performs no heap allocation.  A panic inside a tile
// (fabric invariant violations panic by design) is captured and
// re-raised on the calling goroutine — lowest tile first, so the
// surfaced failure is deterministic — which keeps sim.runLoop's
// recover-to-InvariantViolation contract intact under sharding.
package shard

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Range returns the half-open node interval [lo, hi) of tile t when n
// nodes are split into k contiguous tiles.  Tiles differ in size by at
// most one node and cover [0, n) exactly.
func Range(n, k, t int) (lo, hi int) {
	return t * n / k, (t + 1) * n / k
}

// Pool is a fixed-size persistent worker pool.  It is not safe for
// concurrent Run calls; fabrics own one pool and drive it from their
// (single-threaded) Step.
type Pool struct {
	workers int
	wake    []chan struct{}
	wg      sync.WaitGroup
	next    atomic.Int64
	tiles   int
	fn      func(int)
	panics  []any
	closed  bool
}

// NewPool starts workers persistent goroutines.  Close releases them.
func NewPool(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("shard: NewPool(%d)", workers))
	}
	p := &Pool{
		workers: workers,
		wake:    make([]chan struct{}, workers),
		panics:  make([]any, workers),
	}
	for i := range p.wake {
		p.wake[i] = make(chan struct{}, 1)
		go p.worker(p.wake[i])
	}
	return p
}

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

func (p *Pool) worker(wake <-chan struct{}) {
	for range wake {
		for {
			t := int(p.next.Add(1)) - 1
			if t >= p.tiles {
				break
			}
			p.call(t)
		}
		p.wg.Done()
	}
}

// call runs one tile, capturing a panic into the tile's slot so Run
// can re-raise it deterministically on the caller.
func (p *Pool) call(t int) {
	defer func() {
		if r := recover(); r != nil {
			p.panics[t] = r
		}
	}()
	p.fn(t)
}

// Run executes fn(0) … fn(tiles-1) across the pool and returns when
// every tile has finished.  tiles must not exceed the worker count —
// the pool's capture buffers are sized at construction so the
// steady-state call stays allocation-free.  If any tile panicked, Run
// re-panics with the lowest-numbered tile's value after all tiles have
// completed.
func (p *Pool) Run(tiles int, fn func(tile int)) {
	if p.closed {
		panic("shard: Run on a closed Pool")
	}
	if tiles < 1 || tiles > p.workers {
		//nocvet:alloc panic-path formatting on caller misuse; runs at most once, while dying
		panic(fmt.Sprintf("shard: Run(%d) on a %d-worker pool", tiles, p.workers))
	}
	p.tiles = tiles
	p.fn = fn
	for t := 0; t < tiles; t++ {
		p.panics[t] = nil
	}
	p.next.Store(0)
	p.wg.Add(p.workers)
	for _, c := range p.wake {
		c <- struct{}{}
	}
	p.wg.Wait()
	p.fn = nil
	for t := 0; t < tiles; t++ {
		if r := p.panics[t]; r != nil {
			panic(r)
		}
	}
}

// Close stops the worker goroutines.  The pool must be idle; Run after
// Close panics.
func (p *Pool) Close() {
	if p.closed {
		return
	}
	p.closed = true
	for _, c := range p.wake {
		close(c)
	}
}
