// Package router holds the plumbing shared by every router model: the
// fabric kernel that all six fabrics embed (Kernel: NIs, packet
// lifecycle and energy effects, fault recovery, and the one
// serial/sharded stepping loop), the network-interface queues feeding
// injection ports, priority ordering helpers, the drop-with-retransmit
// recovery policy used under fault injection, and a deterministic hash
// used where the paper calls for a random choice.
package router

import (
	"fmt"

	"surfbless/internal/dueq"
	"surfbless/internal/packet"
)

// NI models one node's network interface on the injection side: a
// bounded FIFO per domain.  Separate per-domain queues realize the
// paper's per-domain injection VCs — a packet of one domain can never
// be head-of-line blocked by a packet of another domain (§4.2).
type NI struct {
	queues   [][]*packet.Packet
	queueCap int
}

// NewNI returns an NI with one queue per domain, each holding at most
// queueCap packets.
func NewNI(domains, queueCap int) *NI {
	if domains < 1 || queueCap < 1 {
		panic(fmt.Sprintf("router: NewNI(%d, %d)", domains, queueCap))
	}
	return &NI{queues: make([][]*packet.Packet, domains), queueCap: queueCap}
}

// Offer appends p to its domain queue; it returns false when the queue
// is full (backpressure to the source).
func (ni *NI) Offer(p *packet.Packet) bool {
	d := p.Domain
	if d < 0 || d >= len(ni.queues) {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("router: packet domain %d outside [0,%d)", d, len(ni.queues)))
	}
	if len(ni.queues[d]) >= ni.queueCap {
		return false
	}
	ni.queues[d] = append(ni.queues[d], p)
	return true
}

// Head returns the next packet of the given domain without removing it,
// or nil when the queue is empty.
func (ni *NI) Head(domain int) *packet.Packet {
	if len(ni.queues[domain]) == 0 {
		return nil
	}
	return ni.queues[domain][0]
}

// Pop removes the head packet of the given domain.  It panics on an
// empty queue: the router must only pop what it previously saw via Head.
func (ni *NI) Pop(domain int) *packet.Packet {
	q := ni.queues[domain]
	if len(q) == 0 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("router: Pop on empty domain %d queue", domain))
	}
	p := q[0]
	n := copy(q, q[1:])
	q[n] = nil // drop the stale tail reference so the GC can reclaim it
	ni.queues[domain] = q[:n]
	return p
}

// Domains returns the number of domain queues.
func (ni *NI) Domains() int { return len(ni.queues) }

// Backlog returns the total number of queued packets across domains.
func (ni *NI) Backlog() int {
	n := 0
	for _, q := range ni.queues {
		n += len(q)
	}
	return n
}

// DomainBacklog returns the number of queued packets for one domain.
func (ni *NI) DomainBacklog(domain int) int { return len(ni.queues[domain]) }

// Recovery is the NI-level drop-with-retransmit policy shared by the
// fault-aware fabrics: a packet knocked out by a fault gets up to
// MaxRetries source retransmissions with exponential backoff
// (Backoff·2^(attempt−1) cycles) before it is dropped for good.  A nil
// *Recovery (faults off) makes TryRetry refuse, restoring the
// fault-free behavior.
type Recovery struct {
	Queue      dueq.Queue[*packet.Packet] // packets awaiting their backoff
	MaxRetries int
	Backoff    int64
}

// TryRetry consumes one retransmission attempt for p at cycle now and
// queues it, or reports false when the budget is exhausted (the caller
// must then account a drop).
func (r *Recovery) TryRetry(p *packet.Packet, now int64) bool {
	if r == nil || p.Retries >= r.MaxRetries {
		return false
	}
	p.Retries++
	back := r.Backoff
	// Shift-capped exponential backoff; attempts beyond 2^20 backoffs
	// would outlive any simulation anyway.
	if shift := p.Retries - 1; shift > 0 {
		if shift > 20 {
			shift = 20
		}
		back <<= uint(shift)
	}
	r.Queue.Push(p, now+back)
	return true
}

// SortOldestFirst orders packets by the old-first arbitration policy
// [12]: longest time in network first, ties broken by packet ID.
// Insertion sort, not sort.Slice: the input is at most one packet per
// router port (≤4) and sort.Slice heap-allocates its interface header
// on every call, which would put an allocation in every router's
// per-cycle path.  Older is a total order, so any correct sort yields
// the identical sequence.
func SortOldestFirst(ps []*packet.Packet) {
	for i := 1; i < len(ps); i++ {
		p := ps[i]
		j := i - 1
		for ; j >= 0 && p.Older(ps[j]); j-- {
			ps[j+1] = ps[j]
		}
		ps[j+1] = p
	}
}

// Hash64 mixes its inputs with the splitmix64 finalizer.  Router models
// use it to make the paper's "randomly granted" deflection choice
// (§4.3 Step-2) deterministic per (packet, cycle) without any shared
// RNG state — shared state would let one domain's draws perturb
// another's, breaking the confinement guarantee the tests assert
// bit-exactly.
func Hash64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
