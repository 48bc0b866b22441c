package coherence

import (
	"fmt"
	"math/bits"
)

// LineState is the MESI state of an L1 line, or the directory-visible
// state of an L2 line.
type LineState int8

// L1 MESI states.  The L2 directory reuses Invalid/Shared/Modified
// (an L1 holding E or M is "Modified" from the directory's viewpoint:
// it is the owner and must be recalled).
const (
	Invalid LineState = iota
	Shared
	Exclusive
	Modified
)

// String names the state.
func (s LineState) String() string {
	switch s {
	case Invalid:
		return "I"
	case Shared:
		return "S"
	case Exclusive:
		return "E"
	case Modified:
		return "M"
	default:
		return fmt.Sprintf("LineState(%d)", int8(s))
	}
}

// Line is one cache line's bookkeeping (tags only; data values are not
// modelled — coherence is checked on states, not contents).  It holds
// no pointer, so the garbage collector never scans a tag store.
type Line struct {
	Tag   uint64
	State LineState
	Dirty bool
	lru   int64

	// Directory fields (used by L2 lines only).
	Sharers NodeSet
	Owner   int // owning L1 node when the directory state is Modified
}

// NodeSet is a set of node ids in [0, 64): a directory line's sharers
// and an invalidation's outstanding acks, so the engine serves at most
// 64 nodes (the 8×8 mesh of §5.2).  The zero value is empty.
type NodeSet uint64

// Add inserts node n.  An id outside [0, 64) panics rather than
// wrapping onto another node.
func (s *NodeSet) Add(n int) {
	if uint(n) >= 64 {
		panic(fmt.Sprintf("coherence: node %d outside a 64-node set", n))
	}
	*s |= 1 << uint(n)
}

// Remove deletes node n; removing a non-member is a no-op.
func (s *NodeSet) Remove(n int) { *s &^= 1 << uint(n) }

// Has reports whether node n is a member.
func (s NodeSet) Has(n int) bool { return s&(1<<uint(n)) != 0 }

// Empty reports whether the set has no members.
func (s NodeSet) Empty() bool { return s == 0 }

// Len returns the number of members.
func (s NodeSet) Len() int { return bits.OnesCount64(uint64(s)) }

// PopMin removes and returns the smallest member, so draining a set
// visits its nodes in ascending order.  The set must not be empty.
func (s *NodeSet) PopMin() int {
	n := bits.TrailingZeros64(uint64(*s))
	if n == 64 {
		panic("coherence: PopMin on an empty node set")
	}
	*s &^= 1 << uint(n)
	return n
}

// Cache is a set-associative tag store with LRU replacement, shared by
// the L1s (32 KB) and L2 banks (256 KB) of Table 1.  A run touches few
// of its sets, so a set's ways are created on its first fill: index
// maps each set to its place in the line store, and a set never filled
// costs one int32.  The store grows in pages that never move, so a
// *Line stays valid across later fills.
type Cache struct {
	sets      int
	ways      int
	blockBits uint
	index     []int32  // [set] → 1 + the set's ordinal in the store; 0 = never filled
	pages     [][]Line // the line store: pageSets sets of ways per page
	filled    int      // sets created so far
	tick      int64
}

// pageSets is the number of sets whose ways one store page holds.
const pageSets = 16

// NewCache builds a cache of the given total capacity.  capacityBytes
// must be a multiple of blockBytes×ways and the set count must be a
// power of two.
func NewCache(capacityBytes, blockBytes, ways int) *Cache {
	if capacityBytes <= 0 || blockBytes <= 0 || ways <= 0 {
		panic(fmt.Sprintf("coherence: NewCache(%d, %d, %d)", capacityBytes, blockBytes, ways))
	}
	blocks := capacityBytes / blockBytes
	if blocks%ways != 0 {
		panic(fmt.Sprintf("coherence: %d blocks not divisible by %d ways", blocks, ways))
	}
	sets := blocks / ways
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("coherence: set count %d not a power of two", sets))
	}
	bits := uint(0)
	for 1<<bits < blockBytes {
		bits++
	}
	if 1<<bits != blockBytes {
		panic(fmt.Sprintf("coherence: block size %d not a power of two", blockBytes))
	}
	return &Cache{sets: sets, ways: ways, blockBits: bits, index: make([]int32, sets)}
}

// BlockAddr converts a byte address to a block address.
func (c *Cache) BlockAddr(byteAddr uint64) uint64 { return byteAddr >> c.blockBits }

func (c *Cache) set(block uint64) int { return int(block % uint64(c.sets)) }

// waysOf returns the set's ways, or nil when the set was never filled.
func (c *Cache) waysOf(set int) []Line {
	k := uint(c.index[set])
	if k == 0 {
		return nil
	}
	k--
	off := int(k%pageSets) * c.ways
	return c.pages[k/pageSets][off : off+c.ways]
}

// find returns the valid line holding the block, or nil.
func (c *Cache) find(block uint64) *Line {
	set := c.waysOf(c.set(block))
	for w := range set {
		if l := &set[w]; l.State != Invalid && l.Tag == block {
			return l
		}
	}
	return nil
}

// Lookup returns the line holding the block, or nil.  A hit refreshes
// the line's LRU stamp.
func (c *Cache) Lookup(block uint64) *Line {
	c.tick++
	l := c.find(block)
	if l != nil {
		l.lru = c.tick
	}
	return l
}

// Peek is Lookup without the LRU refresh (for introspection/tests).
func (c *Cache) Peek(block uint64) *Line { return c.find(block) }

// VictimFor returns the line to install the block into: an invalid way
// if one exists, else the least-recently-used way whose badness is
// lowest according to prefer (lower is better; used by the L2 to avoid
// evicting owned lines).  The returned line still holds the victim's
// previous contents; the caller handles eviction and then Install.
func (c *Cache) VictimFor(block uint64, prefer func(*Line) int) *Line {
	s := c.set(block)
	set := c.waysOf(s)
	if set == nil {
		set = c.create(s)
	}
	var victim *Line
	for w := range set {
		l := &set[w]
		if l.State == Invalid {
			return l
		}
		if victim == nil {
			victim = l
			continue
		}
		if prefer != nil {
			if pb, pv := prefer(l), prefer(victim); pb != pv {
				if pb < pv {
					victim = l
				}
				continue
			}
		}
		if l.lru < victim.lru {
			victim = l
		}
	}
	return victim
}

// create makes the set's ways, all Invalid, at the end of the store.
func (c *Cache) create(set int) []Line {
	if c.filled%pageSets == 0 {
		c.pages = append(c.pages, make([]Line, pageSets*c.ways))
	}
	c.filled++
	c.index[set] = int32(c.filled)
	return c.waysOf(set)
}

// Install resets the line to hold the block in the given state.
func (c *Cache) Install(l *Line, block uint64, state LineState) {
	c.tick++
	*l = Line{Tag: block, State: state, lru: c.tick}
}

// Walk calls fn on every valid line, in set and way order (for
// invariant checks and occupancy accounting).  Sets never filled hold
// no valid line and are skipped.
func (c *Cache) Walk(fn func(*Line)) {
	for s, k := range c.index {
		if k == 0 {
			continue
		}
		set := c.waysOf(s)
		for w := range set {
			if set[w].State != Invalid {
				fn(&set[w])
			}
		}
	}
}
