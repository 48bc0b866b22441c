package coherence

import (
	"fmt"
	"sort"

	"surfbless/internal/dueq"
)

// txnKind classifies the L2's per-line transient states.
type txnKind int

const (
	txnFetch    txnKind = iota // awaiting MemData from a memory controller
	txnRecall                  // awaiting PutM/PutE from the recalled owner
	txnAwaitPut                // requester re-requested its own evicted line; its Put is in flight
	txnInvs                    // awaiting InvAcks from invalidated sharers
)

// l2Txn is one in-progress transaction; the line is "busy" and later
// requests queue behind it.
type l2Txn struct {
	kind         txnKind
	req          *Msg         // the GetS/GetM being served
	owner        int          // recalled owner (txnRecall/txnAwaitPut)
	ackers       map[int]bool // outstanding InvAck senders (txnInvs)
	reqWasSharer bool         // GetM upgrade: grant without data
}

// evictTxn tracks a directory line evicted while owned: the line is
// already gone from the tag store, the owner's data is still inbound.
type evictTxn struct {
	owner int
	dirty bool
}

// L2 is one bank of the shared second-level cache plus its slice of the
// directory.  Banks are address-interleaved across all nodes.
type L2 struct {
	node    int
	cache   *Cache
	send    SendFunc
	mcOf    func(block uint64) int
	latency int64

	inq      dueq.Queue[*Msg] // the bank pipeline: messages wait out the access latency
	busy     map[uint64]*l2Txn
	waiting  map[uint64][]*Msg
	evicting map[uint64]*evictTxn

	// Statistics.
	Hits, MemFetches, Recalls, InvsSent, StaleDrops int64
}

// NewL2 builds a bank with the given capacity and access latency.
func NewL2(node, capacityBytes, blockBytes, ways int, latency int64, mcOf func(uint64) int, send SendFunc) *L2 {
	if latency < 1 {
		panic(fmt.Sprintf("coherence: L2 latency %d", latency))
	}
	return &L2{
		node:     node,
		cache:    NewCache(capacityBytes, blockBytes, ways),
		send:     send,
		mcOf:     mcOf,
		latency:  latency,
		busy:     make(map[uint64]*l2Txn),
		waiting:  make(map[uint64][]*Msg),
		evicting: make(map[uint64]*evictTxn),
	}
}

// Deliver feeds a message into the bank pipeline; it is processed after
// the bank access latency.
func (b *L2) Deliver(m *Msg, now int64) {
	b.inq.Push(m, now+b.latency)
}

// Tick processes every message whose bank latency has elapsed, in
// (due cycle, arrival) order.  Handling never schedules at or before
// now (the latency is at least 1 and a busy-set retry waits one
// cycle), so draining in place sees exactly the messages due on entry.
func (b *L2) Tick(now int64) {
	for m, ok := b.inq.PopDue(now); ok; m, ok = b.inq.PopDue(now) {
		b.handle(m, now)
	}
}

// Pending returns messages still inside the bank pipeline or parked
// behind busy lines (for quiescence detection).
func (b *L2) Pending() int {
	n := b.inq.Len() + len(b.busy) + len(b.evicting)
	for _, q := range b.waiting {
		n += len(q)
	}
	return n
}

func (b *L2) handle(m *Msg, now int64) {
	switch m.Type {
	case GetS, GetM:
		if b.busy[m.Addr] != nil {
			b.waiting[m.Addr] = append(b.waiting[m.Addr], m)
			return
		}
		b.startRequest(m, now)
	case PutM, PutE:
		b.handlePut(m, now)
	case InvAck:
		b.handleInvAck(m, now)
	case MemData:
		b.handleMemData(m, now)
	default:
		panic(fmt.Sprintf("coherence: L2 %d cannot handle %v", b.node, m))
	}
}

func (b *L2) startRequest(m *Msg, now int64) {
	ln := b.cache.Lookup(m.Addr)
	if ln == nil {
		if b.evicting[m.Addr] != nil {
			// The line is mid-eviction (owner data inbound).  Park the
			// request; it restarts when the eviction resolves.
			b.waiting[m.Addr] = append(b.waiting[m.Addr], m)
			b.busy[m.Addr] = &l2Txn{kind: txnFetch, req: nil} // placeholder: drained by eviction completion
			return
		}
		b.MemFetches++
		b.busy[m.Addr] = &l2Txn{kind: txnFetch, req: m}
		b.send(&Msg{Type: MemRead, Addr: m.Addr, From: b.node, To: b.mcOf(m.Addr)}, now)
		return
	}

	switch ln.State {
	case Shared:
		b.Hits++
		if m.Type == GetS {
			if len(ln.Sharers) == 0 {
				// MESI exclusive grant: sole reader gets E.
				ln.State = Modified
				ln.Owner = m.From
				ln.Sharers = nil
				b.send(&Msg{Type: Data, Addr: m.Addr, From: b.node, To: m.From, Excl: true}, now)
			} else {
				ln.Sharers[m.From] = true
				b.send(&Msg{Type: Data, Addr: m.Addr, From: b.node, To: m.From}, now)
			}
			return
		}
		// GetM over a shared line: invalidate the other sharers.
		wasSharer := ln.Sharers[m.From]
		others := make(map[int]bool)
		for s := range ln.Sharers {
			if s != m.From {
				others[s] = true
			}
		}
		if len(others) == 0 {
			b.grantM(ln, m, wasSharer, now)
			return
		}
		b.busy[m.Addr] = &l2Txn{kind: txnInvs, req: m, ackers: others, reqWasSharer: wasSharer}
		for _, s := range sortedKeys(others) {
			b.InvsSent++
			b.send(&Msg{Type: Inv, Addr: m.Addr, From: b.node, To: s}, now)
		}

	case Modified:
		if ln.Owner == m.From {
			// The requester evicted its copy and re-requested before its
			// Put reached us; wait for the inbound Put.
			b.busy[m.Addr] = &l2Txn{kind: txnAwaitPut, req: m, owner: ln.Owner}
			return
		}
		b.Recalls++
		b.busy[m.Addr] = &l2Txn{kind: txnRecall, req: m, owner: ln.Owner}
		b.send(&Msg{Type: Recall, Addr: m.Addr, From: b.node, To: ln.Owner}, now)

	default:
		panic(fmt.Sprintf("coherence: L2 %d line a%x in L1 state %v", b.node, m.Addr, ln.State))
	}
}

// grantM hands exclusive ownership to the requester.
func (b *L2) grantM(ln *Line, req *Msg, wasSharer bool, now int64) {
	ln.State = Modified
	ln.Owner = req.From
	ln.Sharers = nil
	if wasSharer {
		// Upgrade: the requester already has the data (1-flit grant).
		b.send(&Msg{Type: Grant, Addr: req.Addr, From: b.node, To: req.From}, now)
	} else {
		b.send(&Msg{Type: Data, Addr: req.Addr, From: b.node, To: req.From, Excl: true}, now)
	}
}

func (b *L2) handlePut(m *Msg, now int64) {
	// A dying owned line: the Put is the recall response; write back and
	// finish the eviction.
	if ev := b.evicting[m.Addr]; ev != nil {
		if ev.owner != m.From {
			b.StaleDrops++
			return
		}
		if ev.dirty || m.Type == PutM {
			b.send(&Msg{Type: MemWB, Addr: m.Addr, From: b.node, To: b.mcOf(m.Addr)}, now)
		}
		delete(b.evicting, m.Addr)
		b.drain(m.Addr, now)
		return
	}
	if t := b.busy[m.Addr]; t != nil && (t.kind == txnRecall || t.kind == txnAwaitPut) && t.owner == m.From {
		ln := b.cache.Peek(m.Addr)
		if ln == nil || ln.State != Modified {
			panic(fmt.Sprintf("coherence: L2 %d recall completion without owned line a%x", b.node, m.Addr))
		}
		ln.State = Shared
		ln.Sharers = make(map[int]bool)
		if m.Type == PutM {
			ln.Dirty = true
		}
		b.complete(t, now)
		return
	}
	// Plain eviction from the owner.
	if ln := b.cache.Peek(m.Addr); ln != nil && ln.State == Modified && ln.Owner == m.From {
		ln.State = Shared
		ln.Sharers = make(map[int]bool)
		if m.Type == PutM {
			ln.Dirty = true
		}
		return
	}
	b.StaleDrops++
}

func (b *L2) handleInvAck(m *Msg, now int64) {
	t := b.busy[m.Addr]
	if t == nil || t.kind != txnInvs || !t.ackers[m.From] {
		// Straggler ack from a fire-and-forget eviction invalidation.
		b.StaleDrops++
		return
	}
	delete(t.ackers, m.From)
	if len(t.ackers) > 0 {
		return
	}
	ln := b.cache.Peek(m.Addr)
	if ln == nil || ln.State != Shared {
		panic(fmt.Sprintf("coherence: L2 %d invs completion without shared line a%x", b.node, m.Addr))
	}
	b.grantM(ln, t.req, t.reqWasSharer, now)
	delete(b.busy, m.Addr)
	b.drain(m.Addr, now)
}

func (b *L2) handleMemData(m *Msg, now int64) {
	t := b.busy[m.Addr]
	if t == nil || t.kind != txnFetch || t.req == nil {
		panic(fmt.Sprintf("coherence: L2 %d unexpected %v", b.node, m))
	}
	victim := b.cache.VictimFor(m.Addr, func(l *Line) int {
		switch {
		case b.busy[l.Tag] != nil:
			return 3 // never touch a line mid-transaction
		case l.State == Modified:
			return 2 // needs a recall round-trip
		case len(l.Sharers) > 0:
			return 1 // needs invalidations
		default:
			return 0
		}
	})
	if victim.State != Invalid && b.busy[victim.Tag] != nil {
		// Every way of the set is mid-transaction; retry next cycle.
		b.inq.Push(m, now+1)
		return
	}
	b.evictVictim(victim, now)
	b.cache.Install(victim, m.Addr, Shared)
	victim.Sharers = make(map[int]bool)
	b.complete(t, now)
}

// evictVictim removes a directory line, invalidating or recalling the
// L1 copies it tracks.
func (b *L2) evictVictim(victim *Line, now int64) {
	if victim.State == Invalid {
		return
	}
	block := victim.Tag
	switch victim.State {
	case Modified:
		b.Recalls++
		b.evicting[block] = &evictTxn{owner: victim.Owner, dirty: victim.Dirty}
		b.send(&Msg{Type: Recall, Addr: block, From: b.node, To: victim.Owner}, now)
	case Shared:
		for _, s := range sortedKeys(victim.Sharers) {
			b.InvsSent++
			b.send(&Msg{Type: Inv, Addr: block, From: b.node, To: s}, now)
		}
		if victim.Dirty {
			b.send(&Msg{Type: MemWB, Addr: block, From: b.node, To: b.mcOf(block)}, now)
		}
	}
	victim.State = Invalid
}

// complete finishes the busy transaction's request and drains waiters.
func (b *L2) complete(t *l2Txn, now int64) {
	ln := b.cache.Peek(t.req.Addr)
	if ln == nil || ln.State != Shared {
		panic(fmt.Sprintf("coherence: L2 %d complete without shared line a%x", b.node, t.req.Addr))
	}
	if t.req.Type == GetS {
		// The sole requester after a fetch/recall: exclusive handoff.
		ln.State = Modified
		ln.Owner = t.req.From
		ln.Sharers = nil
		b.send(&Msg{Type: Data, Addr: t.req.Addr, From: b.node, To: t.req.From, Excl: true}, now)
	} else {
		b.grantM(ln, t.req, false, now)
	}
	delete(b.busy, t.req.Addr)
	b.drain(t.req.Addr, now)
}

// drain restarts the oldest queued request for the line, if any.
func (b *L2) drain(addr uint64, now int64) {
	delete(b.busy, addr) // clear any placeholder
	q := b.waiting[addr]
	if len(q) == 0 {
		delete(b.waiting, addr)
		return
	}
	next := q[0]
	if len(q) == 1 {
		delete(b.waiting, addr)
	} else {
		b.waiting[addr] = q[1:]
	}
	b.startRequest(next, now)
}

// Walk exposes the directory tag store for invariant checks.
func (b *L2) Walk(fn func(*Line)) { b.cache.Walk(fn) }

// DirectoryState returns the directory's view of a block (for tests):
// the line state and, when owned, the owner.
func (b *L2) DirectoryState(block uint64) (LineState, int) {
	ln := b.cache.Peek(block)
	if ln == nil {
		return Invalid, -1
	}
	if ln.State == Modified {
		return Modified, ln.Owner
	}
	return ln.State, -1
}

func sortedKeys(m map[int]bool) []int {
	ks := make([]int, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Ints(ks)
	return ks
}
