// Package packet defines the units moved by every network model: packets
// (the routing/arbitration unit) and flits (the link-occupancy unit).
//
// A packet records the timestamps needed for the paper's metrics:
// CreatedAt (enqueued at the network interface), InjectedAt (head flit
// entered the network) and EjectedAt (tail flit left it).  Queue latency
// is InjectedAt−CreatedAt and network latency EjectedAt−InjectedAt,
// the two components broken down in Fig. 9.
package packet

import (
	"fmt"

	"surfbless/internal/geom"
)

// Class distinguishes the cache-protocol message sizes of Table 1:
// 1-flit control packets and 5-flit data packets.
type Class int

// Packet classes.
const (
	Ctrl Class = iota // 1-flit control packet
	Data              // 5-flit data packet
)

// String names the class.
func (c Class) String() string {
	switch c {
	case Ctrl:
		return "ctrl"
	case Data:
		return "data"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// Flits returns the default packet length in flits for the class, per
// Table 1 (16-byte blocks on 128-bit links plus header → 5-flit data
// packets, 1-flit control packets).
func (c Class) Flits() int {
	if c == Data {
		return 5
	}
	return 1
}

// Packet is one network packet.  Fields are exported plain data: packets
// cross several packages (traffic → router → stats) and the simulator is
// single-goroutine by design, so no synchronization is embedded.
type Packet struct {
	ID     uint64
	Src    geom.Coord
	Dst    geom.Coord
	Domain int   // interference domain (wave-decoder output)
	VNet   int   // virtual network (coherence message class), -1 if unused
	Class  Class // ctrl or data
	Size   int   // length in flits

	CreatedAt  int64 // cycle the source handed the packet to the NI
	InjectedAt int64 // cycle the head flit entered the network (-1 until then)
	EjectedAt  int64 // cycle the tail flit was ejected (-1 until then)

	Hops        int // router-to-router traversals
	Deflections int // unproductive hops forced by contention
	Retries     int // source retransmissions after a fault drop

	// Msg carries an opaque payload (the coherence engine attaches its
	// protocol message here); nil for synthetic traffic.
	Msg any
}

// New returns a packet of the given class created at cycle now.
// Injection and ejection stamps start unset (-1).
func New(id uint64, src, dst geom.Coord, domain int, class Class, now int64) *Packet {
	return &Packet{
		ID:         id,
		Src:        src,
		Dst:        dst,
		Domain:     domain,
		VNet:       -1,
		Class:      class,
		Size:       class.Flits(),
		CreatedAt:  now,
		InjectedAt: -1,
		EjectedAt:  -1,
	}
}

// QueueLatency returns the cycles spent waiting in the network interface
// before injection.  It panics if the packet was never injected; callers
// must only account ejected packets.
func (p *Packet) QueueLatency() int64 {
	if p.InjectedAt < 0 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("packet %d: QueueLatency before injection", p.ID))
	}
	return p.InjectedAt - p.CreatedAt
}

// NetworkLatency returns the cycles between injection and ejection.
func (p *Packet) NetworkLatency() int64 {
	if p.EjectedAt < 0 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("packet %d: NetworkLatency before ejection", p.ID))
	}
	return p.EjectedAt - p.InjectedAt
}

// TotalLatency returns creation-to-ejection latency (the "average packet
// latency" of Figs. 5, 7 and 9).
func (p *Packet) TotalLatency() int64 {
	if p.EjectedAt < 0 {
		//nocvet:alloc panic-path formatting on a falsified invariant; runs at most once, while dying
		panic(fmt.Sprintf("packet %d: TotalLatency before ejection", p.ID))
	}
	return p.EjectedAt - p.CreatedAt
}

// Older reports whether p has priority over q under the old-first
// arbitration policy [12]: the packet that has been in the network
// longer wins; ties break on packet ID so the order is total and
// deterministic.
func (p *Packet) Older(q *Packet) bool {
	if p.InjectedAt != q.InjectedAt {
		return p.InjectedAt < q.InjectedAt
	}
	return p.ID < q.ID
}

// String renders a compact description for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d[%v→%v d%d %v/%dfl]", p.ID, p.Src, p.Dst, p.Domain, p.Class, p.Size)
}

// Flit is the unit occupying one link or buffer slot for one cycle in
// the flit-level (VC) router models.
type Flit struct {
	Pkt *Packet
	Seq int // 0-based position within the packet
}

// Head reports whether f is the packet's head flit (carries routing info).
func (f Flit) Head() bool { return f.Seq == 0 }

// Tail reports whether f is the packet's tail flit (frees the VC).
func (f Flit) Tail() bool { return f.Seq == f.Pkt.Size-1 }

// Explode returns the packet's flits in order.
func Explode(p *Packet) []Flit {
	fs := make([]Flit, p.Size)
	for i := range fs {
		fs[i] = Flit{Pkt: p, Seq: i}
	}
	return fs
}

// FreeList recycles ejected packets so that steady-state simulation
// needs no heap allocation: the sink returns each delivered packet via
// Put and the traffic generator draws replacements via New.  Recycling
// is observably equivalent to fresh allocation — New resets every
// field — but a fabric that keeps a packet pointer past ejection must
// recognise reuse (RUNAHEAD's source timers compare the packet ID they
// recorded).  The zero value is an empty list, ready to use.  Not safe
// for concurrent use.
type FreeList struct {
	free []*Packet
}

// New returns a packet of the given class created at cycle now, reusing
// a recycled one when available.  All fields are reset; the result is
// indistinguishable from packet.New's.
func (fl *FreeList) New(id uint64, src, dst geom.Coord, domain int, class Class, now int64) *Packet {
	n := len(fl.free)
	if n == 0 {
		return New(id, src, dst, domain, class, now)
	}
	p := fl.free[n-1]
	fl.free[n-1] = nil
	fl.free = fl.free[:n-1]
	*p = Packet{
		ID:         id,
		Src:        src,
		Dst:        dst,
		Domain:     domain,
		VNet:       -1,
		Class:      class,
		Size:       class.Flits(),
		CreatedAt:  now,
		InjectedAt: -1,
		EjectedAt:  -1,
	}
	return p
}

// Put recycles p.  The caller must guarantee no live references remain.
func (fl *FreeList) Put(p *Packet) { fl.free = append(fl.free, p) }

// Len returns the number of packets currently available for reuse.
func (fl *FreeList) Len() int { return len(fl.free) }

// IDSource hands out unique packet IDs.  The zero value is ready to use.
// It is not safe for concurrent use; the simulator is single-goroutine.
type IDSource struct{ next uint64 }

// Next returns a fresh packet ID.
func (s *IDSource) Next() uint64 {
	id := s.next
	s.next++
	return id
}
