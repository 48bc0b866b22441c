// Package probe is the simulator's low-overhead observability layer:
// one event stream per run, carrying the fabric kernel's packet
// lifecycle events, the routers' hot-path link traversals and the
// driver's per-cycle occupancy samples, and the observers that consume
// it.  Every observer is a Tap armed with the run's shape (mesh,
// domain count, measurement window): Series folds the stream into
// (a) per-interval time series — injections, ejections, refusals,
// deflections, drops, retransmissions, in-flight occupancy and mean
// latency per domain, bucketed every Series width — and (b) spatial
// heatmaps — per-router flit traversals, deflections and ejections plus
// per-link flit counts accumulated over the run; FlightRecorder keeps
// the trailing window for forensic dumps; packages trace and stats add
// the lifecycle CSV, the Chrome-trace spans and per-flow latency
// maxima.
//
// Hot-path architecture (DESIGN.md §15): Probe is only the transport.
// Every hook appends one fixed-size Event into a preallocated ring
// segment — per-router segments for the router events, one driver
// segment for the kernel's packet lifecycle stream — and the ring
// drains every drainStride cycles, handing each segment's batch to the
// taps.  An append is a bounds check, a capacity check and a 48-byte
// store: no allocation, no pointer chase, no interface dispatch.
//
// Overhead: a disarmed (nil) *Probe is safe to call and costs one
// branch — fabrics guard their hot-path hooks with a nil check, and
// every method returns immediately on a nil receiver — so unobserved
// runs pay nothing measurable.  A ring feeding a Series is gated to
// ≤1.10× the unobserved Step time on SB/WH/Surf (`make
// probe-overhead`).  Like the fabrics, a Probe and its taps are a
// single-goroutine state machine: do not share one across concurrent
// runs.
package probe

import (
	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

// Ring sizing: each router gets a segment of ringBudget/nodes events,
// clamped to [minSegCap, maxSegCap]; the driver lifecycle stream,
// which multiplexes every NI and the per-cycle occupancy samples, gets
// driverSegCap.  A full segment flushes early — exactness never
// depends on capacity, only batching does.  A router appends at most
// one traversal per out-link per cycle, and a drain covers at most
// drainStride+1 cycles (the first covers cycles 0…drainStride), so a
// maxSegCap segment never fills between drains; only meshes big enough
// for ringBudget/nodes to fall below it (32×32 gets 64 events) see a
// router segment flush early.
const (
	ringBudget   = 1 << 14
	minSegCap    = 64
	maxSegCap    = (drainStride + 1) * geom.NumLinkDirs
	driverSegCap = 4096
)

// drainStride paces ring drains: Tick flushes the ring every
// drainStride cycles.  Taps window each event by its own cycle, so the
// stride never changes what they compute; it keeps the batch working
// set small enough to stay cache-resident while it is written and
// immediately re-read.
const drainStride = 32

// Config is the shape of one run: Probe.Arm arms the ring with it and
// hands it on to every tap.
type Config struct {
	Mesh    geom.Mesh
	Domains int
	// WarmupEnd / MeasureEnd bound the measurement window, exactly as in
	// stats.NewCollector.  MeasureEnd == 0 means "no upper bound".
	WarmupEnd  int64
	MeasureEnd int64
}

// segment is one preallocated ring region.  buf never grows after
// Arm; n is the append cursor, reset by each flush.
type segment struct {
	buf []Event
	n   int
}

// Probe is one run's event ring.  The zero value is disarmed and
// ignores every event; call Arm (sim.Run does it when Options.Taps is
// non-empty) before driving a fabric.
//
//hook:nil-disabled
type Probe struct {
	mesh  geom.Mesh
	armed bool
	// routers is set when some tap reads router events: only then does
	// the ring keep router segments and Traverse record.
	routers bool

	// segs[node] holds router events, segs[len-1] the driver
	// lifecycle/tick stream.
	segs      []segment
	taps      []Tap
	nextDrain int64
}

// Arm resets the ring for one run, arms each tap with cfg and
// subscribes the taps to its drained batches (in order).  The ring
// keeps router segments only when some tap reads router events.
// Re-arming discards undrained events and replaces the taps.
func (pr *Probe) Arm(cfg Config, taps ...Tap) {
	nodes := 0 // router segments, kept only for a tap that reads them
	for _, t := range taps {
		if t.Arm(cfg) {
			nodes = cfg.Mesh.Nodes()
		}
	}
	pr.routers = nodes > 0
	segCap := min(max(ringBudget/max(nodes, 1), minSegCap), maxSegCap)
	pr.mesh = cfg.Mesh
	pr.armed = true
	pr.segs = make([]segment, nodes+1)
	for i := 0; i < nodes; i++ {
		pr.segs[i].buf = make([]Event, segCap)
		// Router segments only ever hold Traverse events of their own
		// router, whose Src/Dst are always "not recorded": pin Node,
		// Src and Dst once so the hot-path append never writes them.
		for j := range pr.segs[i].buf {
			pr.segs[i].buf[j].Node = int32(i)
			pr.segs[i].buf[j].Src = -1
			pr.segs[i].buf[j].Dst = -1
		}
	}
	pr.segs[nodes].buf = make([]Event, driverSegCap)
	pr.taps = taps
	pr.nextDrain = drainStride
}

// flush hands one segment's batch to every tap and empties it.
func (pr *Probe) flush(s *segment) {
	if s.n == 0 {
		return
	}
	b := s.buf[:s.n]
	for _, t := range pr.taps {
		t.Consume(b)
	}
	s.n = 0
}

// Flush drains every ring segment — router segments in node order,
// the driver stream last — into the taps.  sim.Run calls it when the
// run ends, whatever its outcome, so every tap (a flight recorder's
// snapshot included) sees right up to the last cycle.
func (pr *Probe) Flush() {
	if pr == nil || !pr.armed {
		return
	}
	for i := range pr.segs {
		pr.flush(&pr.segs[i])
	}
}

// driver returns the driver lifecycle segment; callers hold the
// pr==nil/armed guard.
func (pr *Probe) driver() *segment { return &pr.segs[len(pr.segs)-1] }

// Lifecycle appends one packet lifecycle event at cycle to the ring's
// shared lifecycle segment: kind is KindCreated, KindInjected,
// KindEjected, KindDropped or KindRetransmit, node is the router an
// ejection happened at (-1 otherwise), and hops and defl are the
// packet's counts as of the event.  router.Kernel is the only caller:
// it reports inline when stepping serially and, when sharded, replays
// each tile's deferred events at the barrier with the counts recorded
// at deferral.
func (pr *Probe) Lifecycle(kind Kind, p *packet.Packet, cycle int64, node, hops, defl int) {
	if pr == nil || !pr.armed {
		return
	}
	s := pr.driver()
	if s.n == len(s.buf) {
		pr.flush(s)
	}
	e := &s.buf[s.n]
	s.n++
	e.Cycle = cycle
	e.Created = p.CreatedAt
	e.ID = p.ID
	e.Node = int32(node)
	e.Src = int32(pr.mesh.ID(p.Src))
	e.Dst = int32(pr.mesh.ID(p.Dst))
	e.Flits = int32(p.Size)
	e.Domain = int16(p.Domain)
	e.Kind = kind
	e.Dir = 0
	e.Hops = sat16(hops)
	e.Deflections = sat16(defl)
}

// sat16 narrows a count to the Event's 16-bit fields, saturating.
func sat16(n int) uint16 { return uint16(min(n, 0xffff)) }

// Refused records a rejected offer at cycle now.
func (pr *Probe) Refused(domain int, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	s := pr.driver()
	if s.n == len(s.buf) {
		pr.flush(s)
	}
	e := &s.buf[s.n]
	s.n++
	*e = Event{Cycle: now, Node: -1, Src: -1, Dst: -1, Domain: int16(domain), Kind: KindRefused}
}

// Traverse is the router hot-path hook: flits of p left node through
// out-link dir at cycle now; deflected marks an unproductive hop.
// Packet-granular fabrics call it once per forward with flits =
// p.Size; flit-granular (VC) fabrics once per link flit with flits = 1.
// It appends one event to the node's ring segment and nothing more —
// the accounting happens at drain time — and records nothing when no
// tap reads router events.
func (pr *Probe) Traverse(node int, dir geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	if pr == nil || !pr.routers {
		return
	}
	s := &pr.segs[node]
	n := s.n
	if n == len(s.buf) {
		pr.flush(s)
		n = 0
	}
	s.n = n + 1
	e := &s.buf[n]
	e.Cycle = now
	e.Created = p.CreatedAt
	e.ID = p.ID
	// Node and Src/Dst stay as Arm pinned them into router segments.
	e.Flits = int32(flits)
	e.Domain = int16(p.Domain)
	k := KindLinkBusy
	if deflected {
		k = KindDeflect
	}
	e.Kind = k
	e.Dir = uint8(dir)
}

// Tick samples occupancy at the end of cycle now; the driver calls it
// once per cycle after Fabric.Step.  inFlight is the fabric's total
// occupancy (network.Fabric.InFlight).  Tick also paces the ring: the
// whole ring drains once per drainStride cycles.
func (pr *Probe) Tick(now int64, inFlight int) {
	if pr == nil || !pr.armed {
		return
	}
	s := pr.driver()
	if s.n == len(s.buf) {
		pr.flush(s)
	}
	e := &s.buf[s.n]
	s.n++
	*e = Event{Cycle: now, Node: -1, Src: -1, Dst: -1, Flits: int32(inFlight), Kind: KindTick}
	if now >= pr.nextDrain {
		pr.Flush()
		pr.nextDrain = now + drainStride
	}
}
