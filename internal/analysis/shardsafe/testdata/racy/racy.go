// Package racy is the deliberately broken fixture: every write or call
// here that escapes the tile must be flagged with the exact function
// chain from the phase root.
package racy

import (
	"nocvet.example/internal/fault"
	"nocvet.example/internal/power"
	"nocvet.example/internal/probe"
	"nocvet.example/internal/router"
	"nocvet.example/internal/shard"
	"nocvet.example/internal/stats"
	"nocvet.example/obs"
)

// order records delivery order across all tiles — package-level, so
// appending from a worker is a data race.
var order []int

// noter is an interface-typed observer: calls through it dispatch
// dynamically even though the type checker names the abstract method.
type noter interface {
	Note(id int)
}

type node struct {
	seen int
	peer int
	buf  []int
}

type Eng struct {
	router.Kernel
	nodes  []*node
	tiles  int
	shNow  int64
	total  int
	armed  int
	log    []int
	seenBy map[int]int
	meter  *power.Meter
	col    *stats.Collector
	probe  *probe.Probe
	ctr    *obs.Counter
	inj    *fault.Injector
	sink   func(id int)
	isink  noter
}

//shard:phase(receive)
func (e *Eng) recvTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	for id := lo; id < hi; id++ {
		e.drain(e.nodes[id])
	}
	for _, n := range e.nodes { // every node, not the tile's slice
		n.seen++ // want "unconfined write to n\\.seen in tile-parallel phase receive \\(via racy\\.\\(\\*Eng\\)\\.recvTile\\)"
	}
}

// drain is one call deep: the finding's chain must name it.
func (e *Eng) drain(n *node) {
	n.buf = n.buf[:0]
	e.total++ // want "unconfined write to e\\.total in tile-parallel phase receive \\(via racy\\.\\(\\*Eng\\)\\.recvTile → racy\\.\\(\\*Eng\\)\\.drain\\)"
}

//shard:phase(resolve)
func (e *Eng) resolveTile(t int) {
	lo, hi := shard.Range(len(e.nodes), e.tiles, t)
	for id := lo; id < hi; id++ {
		order = append(order, id) // want "unconfined write to package-level variable order in tile-parallel phase resolve"
		e.col.Injected(e.shNow)   // want "stats\\.\\(\\*Collector\\)\\.Injected folds into shared aggregate state and is effects-phase-only, but is reached in tile-parallel phase resolve"
		e.meter.Allocation(1)     // want "power\\.\\(\\*Meter\\)\\.Allocation folds into shared aggregate state and is effects-phase-only"
		e.sink(id)                // want "dynamic call through shared e\\.sink in tile-parallel phase resolve"
		e.isink.Note(id)          // want "dynamic call through shared e\\.isink\\.Note in tile-parallel phase resolve"
		e.seenBy[t] = id          // want "unconfined write to e\\.seenBy\\[t\\] in tile-parallel phase resolve"
		e.log = append(e.log, id) // want "unconfined write to e\\.log in tile-parallel phase resolve"
	}
	e.probe.Flush()       // want "probe\\.\\(\\*Probe\\)\\.Flush folds into shared aggregate state and is effects-phase-only"
	e.probe.Lifecycle(lo) // want "probe\\.\\(\\*Probe\\)\\.Lifecycle folds into shared aggregate state and is effects-phase-only"
	obs.Record(e.ctr)
}

// wakeTile ranges over the tile's woken routers, but only an element of
// Active(t) is a tile-derived ID: the loop index, a neighbour's ID read
// from a node, and the IDs of a constant tile's list are not.
//
//shard:phase(resolve)
func (e *Eng) wakeTile(t int) {
	for i, id := range e.Active(t) {
		e.nodes[id].seen++
		e.nodes[i].seen++                // want "unconfined write to e\\.nodes\\[i\\]\\.seen in tile-parallel phase resolve \\(via racy\\.\\(\\*Eng\\)\\.wakeTile\\)"
		e.nodes[e.nodes[id].peer].seen++ // want "unconfined write to e\\.nodes\\[e\\.nodes\\[id\\]\\.peer\\]\\.seen in tile-parallel phase resolve"
	}
	for _, id := range e.Active(0) {
		e.nodes[id].seen++ // want "unconfined write to e\\.nodes\\[id\\]\\.seen in tile-parallel phase resolve \\(via racy\\.\\(\\*Eng\\)\\.wakeTile\\)"
	}
}

// armTile's fault guard only short-circuits what follows the nil
// check: the leading conjunct runs on every tile and must be walked.
//
//shard:phase(resolve)
func (e *Eng) armTile(t int) {
	if e.bump() && e.inj != nil {
		return
	}
}

func (e *Eng) bump() bool {
	e.armed++ // want "unconfined write to e\\.armed in tile-parallel phase resolve \\(via racy\\.\\(\\*Eng\\)\\.armTile → racy\\.\\(\\*Eng\\)\\.bump\\)"
	return e.armed > 0
}

// budgetTile violates the root contract: with two integer parameters
// the tile index is ambiguous, so the root is reported and skipped —
// the write below must NOT be flagged (budget is not proven
// tile-derived, but nothing here was analyzed).
//
//shard:phase(receive)
func (e *Eng) budgetTile(t, budget int) { // want "tile-parallel phase root racy\\.\\(\\*Eng\\)\\.budgetTile has 2 integer parameters; the //shard:phase contract allows exactly one \\(the tile index\\)"
	e.nodes[budget].seen++
}

//shard:phase(flush) // want "unknown phase \"flush\" in //shard:phase annotation"
func (e *Eng) flushTile(t int) {}
