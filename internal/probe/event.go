package probe

import "fmt"

// Kind classifies one ring event.  The hot-path hooks record a Kind
// and a fixed set of scalar fields instead of calling into the
// accumulation logic, so appending an event costs a handful of stores
// regardless of kind; the meaning of each field is resolved once per
// batch at drain time, by the taps (see Series.fold).
type Kind uint8

// Ring event kinds.
const (
	// KindCreated: an NI accepted a generator offer.  Cycle ==
	// Created == the packet's CreatedAt; Src/Dst carry the route.
	KindCreated Kind = iota
	// KindRefused: a full NI queue rejected an offer.  No packet.
	KindRefused
	// KindInjected: a head flit entered the network (Cycle ==
	// InjectedAt; Created keeps the measurement-window key).
	KindInjected
	// KindEjected: a tail flit left the network at router Node.
	KindEjected
	// KindDropped: the fault machinery discarded the packet after
	// exhausting its retransmission budget.
	KindDropped
	// KindRetransmit: a fault drop re-queued the packet at its source.
	KindRetransmit
	// KindLinkBusy: Flits flits of the packet crossed router Node's
	// out-link Dir — the router hot-path event (one per forward on
	// packet-granular fabrics, one per link flit on VC fabrics).
	KindLinkBusy
	// KindDeflect: a KindLinkBusy hop that was unproductive.
	KindDeflect
	// KindTick: the driver's end-of-cycle occupancy sample; Flits
	// carries the fabric's total in-flight count.
	KindTick

	numKinds
)

// String names the kind (the flight-recorder dump vocabulary).
func (k Kind) String() string {
	switch k {
	case KindCreated:
		return "created"
	case KindRefused:
		return "refused"
	case KindInjected:
		return "injected"
	case KindEjected:
		return "ejected"
	case KindDropped:
		return "dropped"
	case KindRetransmit:
		return "retransmit"
	case KindLinkBusy:
		return "link-busy"
	case KindDeflect:
		return "deflect"
	case KindTick:
		return "tick"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Event is one fixed-size ring record: every observability fact the
// simulator emits, flattened to plain scalars so that appending never
// allocates, never chases a pointer, and never needs the packet again
// (free-list recycling may reset the packet long before the ring
// drains).  48 bytes; keep it that way — the hot path copies one per
// event.
type Event struct {
	// Cycle is the cycle the event happened at (its time-series
	// bucket key).
	Cycle int64 `json:"cycle"`
	// Created is the packet's CreatedAt — the measurement-window key
	// (windowing is by creation cycle, exactly as in package stats).
	// Zero and meaningless for KindRefused and KindTick.
	Created int64 `json:"created"`
	// ID is the packet ID (0 for KindRefused and KindTick).
	ID uint64 `json:"packet"`
	// Node is the router the event happened at (mesh node ID), or -1
	// for driver/NI-side lifecycle events.
	Node int32 `json:"node"`
	// Src and Dst are the packet's route as mesh node IDs, or -1 when
	// the event does not record them (hot router events skip them; the
	// packet's KindCreated/KindInjected/KindEjected records carry them).
	Src int32 `json:"src"`
	Dst int32 `json:"dst"`
	// Flits is the flit count of a KindLinkBusy/KindDeflect hop, or
	// the fabric's total occupancy for KindTick.
	Flits int32 `json:"flits"`
	// Domain is the packet's interference domain.
	Domain int16 `json:"domain"`
	// Kind classifies the event.
	Kind Kind `json:"kind"`
	// Dir is the out-link direction of a KindLinkBusy/KindDeflect hop
	// (geom.Dir).
	Dir uint8 `json:"dir"`
	// Hops and Deflections are the packet's router traversals and
	// unproductive hops as of a lifecycle event — not as of the drain,
	// and not as of the sharded kernel's end-of-cycle replay (zero on
	// router and tick events).  They fill the record's padding, so they
	// saturate at 65535, far above any count a run reaches.
	Hops        uint16 `json:"hops"`
	Deflections uint16 `json:"deflections"`
}

// Tap observes one run's event stream.  Probe.Arm arms every tap with
// the run's Config before the first event — a tap sizes and resets
// itself there, and may be used only after it — then hands each
// flushed ring segment to the taps in order.  A router segment's batch
// holds only that router's KindLinkBusy and KindDeflect events; the
// driver segment's batch holds every other kind.  Events arrive in
// append order within a segment and cycle order is non-decreasing
// inside one batch.  The slice is only valid for the duration of the
// call — a tap that retains events must copy them (the flight recorder
// does).
//
// Arm reports whether the tap reads router events.  When no tap of a
// run does, the ring keeps no router segments and records no link
// traversals; when one does, every tap is handed the router batches.
type Tap interface {
	Arm(cfg Config) (routerEvents bool)
	Consume(batch []Event)
}
