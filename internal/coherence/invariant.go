package coherence

import "fmt"

// copies records which L1s hold one block: every valid copy, and the
// subset held Exclusive or Modified.
type copies struct {
	valid, owners NodeSet
}

// l1Copies maps every block some L1 holds to its holders.
func l1Copies(l1s []*L1) map[uint64]copies {
	held := make(map[uint64]copies)
	for node, l1 := range l1s {
		l1.Walk(func(ln *Line) {
			c := held[ln.Tag]
			c.valid.Add(node)
			if ln.State == Exclusive || ln.State == Modified {
				c.owners.Add(node)
			}
			held[ln.Tag] = c
		})
	}
	return held
}

// CheckSWMR verifies the single-writer / multiple-reader invariant
// across a set of L1 caches at the current instant: for every block,
// at most one L1 holds it Exclusive or Modified, and when one does, no
// other L1 holds it Shared.  The protocol maintains this at every
// cycle (ownership is only granted after the previous copies are
// provably gone), so tests call this continuously during random runs.
func CheckSWMR(l1s []*L1) error {
	for block, c := range l1Copies(l1s) {
		if n := c.owners.Len(); n > 1 {
			return fmt.Errorf("coherence: block %x has %d owners", block, n)
		}
		if !c.owners.Empty() && c.valid != c.owners {
			owner := c.owners.PopMin()
			return fmt.Errorf("coherence: block %x owned by L1 %d with %d sharers alive",
				block, owner, c.valid.Len()-1)
		}
	}
	return nil
}

// CheckDirectory verifies that every sharer recorded by the L2 banks
// holds the block in at most Shared state (never E/M), and that a
// recorded owner never appears as a sharer elsewhere.  Directory
// entries may overcount (silent S evictions), never undercount.
func CheckDirectory(l1s []*L1, l2s []*L2) error {
	held := l1Copies(l1s)
	var err error
	for _, l2 := range l2s {
		l2.Walk(func(ln *Line) {
			if err != nil {
				return
			}
			c := held[ln.Tag]
			switch ln.State {
			case Shared:
				if bad := ln.Sharers & c.owners; !bad.Empty() {
					s := bad.PopMin()
					err = fmt.Errorf("coherence: directory says L1 %d shares %x but it holds %v",
						s, ln.Tag, l1s[s].StateOf(ln.Tag))
				}
			case Modified:
				others := c.valid
				others.Remove(ln.Owner)
				if !others.Empty() {
					n := others.PopMin()
					err = fmt.Errorf("coherence: block %x owned by L1 %d but L1 %d holds %v",
						ln.Tag, ln.Owner, n, l1s[n].StateOf(ln.Tag))
				}
			}
		})
	}
	return err
}
