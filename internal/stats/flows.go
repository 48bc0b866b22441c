package stats

import (
	"sort"

	"surfbless/internal/geom"
	"surfbless/internal/probe"
)

// FlowKey identifies one flow: every packet travelling src→dst inside
// one interference domain belongs to the same flow, matching the flow
// model of the analytical timing engine (internal/wcta).
type FlowKey struct {
	Src    geom.Coord
	Dst    geom.Coord
	Domain int
}

// FlowStats accumulates the per-flow worst-case observations the
// conformance oracle compares against analytical bounds.  Maxima are
// true p100 values over every delivered packet of the flow — windowing
// does not apply, because a latency bound must hold for warm-up and
// drain traffic too.
type FlowStats struct {
	Ejected           int64 // packets delivered on this flow
	MaxNetworkLatency int64 // worst injection→ejection latency seen
	MaxTotalLatency   int64 // worst creation→ejection latency seen
}

// FlowTracker records per-flow maxima as a probe tap: give a zero
// value to a run (sim.Options.Taps), which arms it, and it folds every
// delivered packet into its flow.  An ejection event carries the
// creation cycle but not the injection cycle, so the tracker keys each
// packet's first injection by packet ID and forgets it at ejection or
// drop; that map holds at most the packets in flight.  The flow map
// holds values, not pointers, so steady-state observation allocates
// only on map growth.
type FlowTracker struct {
	mesh     geom.Mesh
	injected map[uint64]int64 // packet ID → first injection cycle
	flows    map[FlowKey]FlowStats
}

// Arm implements probe.Tap: it empties the tracker for a run on
// cfg.Mesh.
func (t *FlowTracker) Arm(cfg probe.Config) {
	*t = FlowTracker{mesh: cfg.Mesh, injected: make(map[uint64]int64), flows: make(map[FlowKey]FlowStats)}
}

// Consume implements probe.Tap.  The kernel reports a packet's
// injection once, on its first entry into the network, and every
// packet is injected before it is ejected.
func (t *FlowTracker) Consume(batch []probe.Event) {
	for i := range batch {
		e := &batch[i]
		switch e.Kind {
		case probe.KindInjected:
			t.injected[e.ID] = e.Cycle
		case probe.KindDropped:
			delete(t.injected, e.ID)
		case probe.KindEjected:
			k := FlowKey{Src: t.mesh.CoordOf(int(e.Src)), Dst: t.mesh.CoordOf(int(e.Dst)), Domain: int(e.Domain)}
			fs := t.flows[k]
			fs.Ejected++
			fs.MaxNetworkLatency = max(fs.MaxNetworkLatency, e.Cycle-t.injected[e.ID])
			fs.MaxTotalLatency = max(fs.MaxTotalLatency, e.Cycle-e.Created)
			t.flows[k] = fs
			delete(t.injected, e.ID)
		}
	}
}

// Flow returns the accumulated stats for k (zero value when the flow
// delivered nothing).
func (t *FlowTracker) Flow(k FlowKey) FlowStats { return t.flows[k] }

// Len returns the number of flows that delivered at least one packet.
func (t *FlowTracker) Len() int { return len(t.flows) }

// Keys returns every observed flow in a deterministic order (domain,
// then src id-like, then dst), so reports and tests iterate stably.
func (t *FlowTracker) Keys() []FlowKey {
	ks := make([]FlowKey, 0, len(t.flows))
	for k := range t.flows {
		ks = append(ks, k)
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.Domain != b.Domain {
			return a.Domain < b.Domain
		}
		if a.Src != b.Src {
			if a.Src.Y != b.Src.Y {
				return a.Src.Y < b.Src.Y
			}
			return a.Src.X < b.Src.X
		}
		if a.Dst.Y != b.Dst.Y {
			return a.Dst.Y < b.Dst.Y
		}
		return a.Dst.X < b.Dst.X
	})
	return ks
}
