// Package network defines the contract every router model's mesh
// ("fabric") implements, so that traffic generators, the synthetic
// simulator and the full-system simulator drive all six models (WH,
// Surf, BLESS, SB, CHIPPER and RUNAHEAD) interchangeably.
package network

import "surfbless/internal/packet"

// Sink receives every packet the moment its tail is ejected at its
// destination node.  The synthetic simulator's sink only feeds
// statistics; the full-system simulator's sink hands the packet to the
// cache-coherence engine.
//
//hook:nil-disabled
type Sink func(node int, p *packet.Packet, now int64)

// Fabric is one mesh network instance.  Implementations are
// single-goroutine state machines: callers must call Step exactly once
// per cycle with a strictly increasing cycle number and perform all
// Inject calls for cycle T before Step(T).
type Fabric interface {
	// Inject offers a packet to node's network interface at cycle now.
	// It returns false when the NI queue for the packet's domain is
	// full; the caller decides whether to retry later (closed-loop
	// sources) or drop the offer (open-loop generators count it as
	// refused).
	Inject(node int, p *packet.Packet, now int64) bool

	// Step advances the whole network by one cycle.
	Step(now int64)

	// InFlight returns the number of accepted-but-not-yet-ejected
	// packets (queued at NIs, buffered in routers, or on links).
	InFlight() int

	// Audit cross-checks internal conservation invariants (queues +
	// links + buffers must account for exactly InFlight packets) and
	// returns the first inconsistency, or nil.  It is cheap enough to
	// call every few thousand cycles in tests.
	Audit() error
}
