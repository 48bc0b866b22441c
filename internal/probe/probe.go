// Package probe is the simulator's low-overhead observability layer:
// it turns a run's packet-lifecycle and router hot-path events into
// (a) per-interval time series — injections, ejections, refusals,
// deflections, drops, retransmissions, in-flight occupancy and mean
// latency per domain, bucketed every Every cycles — and (b) spatial
// heatmaps — per-router flit traversals, deflections and ejections
// plus per-link flit counts accumulated over the run.
//
// Measurement discipline matches package stats exactly: only packets
// created inside [WarmupEnd, MeasureEnd) contribute, so the probe's
// totals reconcile with the collector's stats.Domain aggregates (to
// the packet, once the network has fully drained).  Events are
// bucketed by the cycle they happen at, which may fall after
// MeasureEnd for in-window packets that eject during the drain phase.
//
// Hot-path architecture (DESIGN.md §15): hooks do not accumulate.
// Every hook appends one fixed-size Event into a preallocated ring
// segment — per-router segments for the router events, one driver
// segment for the NI/collector lifecycle stream — and all windowing,
// bucketing and counter arithmetic happens once per ProbeEvery
// interval when the ring drains (Probe.fold).  An append is a bounds
// check, a capacity check and a 48-byte store: no allocation, no
// pointer chase, no interface dispatch.  Drained batches additionally
// fan out to attached Taps (flight recorder, Perfetto span export).
//
// Overhead: a disarmed (nil) *Probe is safe to call and costs one
// branch — fabrics guard their hot-path hooks with a nil check, and
// every method returns immediately on a nil receiver — so probe-off
// runs pay nothing measurable.  Probe-on runs are gated to ≤1.10×
// the unprobed Step time on SB/WH/Surf (`make probe-overhead`).
// Like the fabrics, a Probe is a single-goroutine state machine: do
// not share one across concurrent runs.
package probe

import (
	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

// DefaultEvery is the interval width used when a caller arms a probe
// without choosing one.
const DefaultEvery = 100

// Ring sizing: each router gets a segment of ringBudget/nodes events
// (clamped to [minSegCap, maxSegCap]); the driver lifecycle stream,
// which multiplexes every NI and the per-cycle occupancy samples,
// gets driverSegCap.  A full segment flushes early — exactness never
// depends on capacity, only batching efficiency does.
const (
	ringBudget   = 1 << 14
	minSegCap    = 64
	maxSegCap    = 1024
	driverSegCap = 4096
)

// drainStride paces ring drains: Tick flushes the ring every
// min(Every, drainStride) cycles.  Draining more often than the bucket
// width costs nothing in exactness (fold windows each event by its own
// cycle) but keeps the batch working set small enough to stay
// cache-resident while it is written and immediately re-read.
const drainStride = 32

// Config arms a probe for one run.
type Config struct {
	Mesh    geom.Mesh
	Domains int
	// Every is the time-series bucket width in cycles (≤0 = DefaultEvery).
	Every int64
	// WarmupEnd / MeasureEnd bound the measurement window, exactly as in
	// stats.NewCollector.  MeasureEnd == 0 means "no upper bound".
	WarmupEnd  int64
	MeasureEnd int64
}

// DomainSlice is one domain's counters over one time-series interval.
type DomainSlice struct {
	Created     int64 // in-window packets accepted by an NI this interval
	Refused     int64 // offers rejected by a full NI queue
	Injected    int64 // in-window packets entering the network
	Ejected     int64 // in-window packets delivered
	Deflections int64 // unproductive hops suffered by in-window packets
	Dropped     int64 // in-window packets discarded by the fault machinery
	Retransmits int64 // source retransmission attempts this interval
	LatencySum  int64 // total (creation→ejection) latency of the interval's ejections
	InFlight    int64 // domain occupancy at the interval's last sampled cycle
}

// MeanLatency returns the interval's average total packet latency, or
// 0 when nothing was delivered in it.
func (s DomainSlice) MeanLatency() float64 {
	if s.Ejected == 0 {
		return 0
	}
	return float64(s.LatencySum) / float64(s.Ejected)
}

// Interval is one closed time-series bucket.
type Interval struct {
	Start int64 // first cycle of the bucket
	End   int64 // one past the last observed cycle (Start+Every, except a trailing partial bucket)
	// NetInFlight is the fabric's total occupancy (queued + in network)
	// at the interval's last sampled cycle.
	NetInFlight int64
	Domains     []DomainSlice
}

// Heatmap is the spatial view of one run: per-router and per-out-link
// counters indexed by mesh node ID (and geom direction for links).
type Heatmap struct {
	Mesh              geom.Mesh
	RouterFlits       []int64                   // flits forwarded through each router
	RouterDeflections []int64                   // deflections suffered at each router
	RouterEjections   []int64                   // packets delivered at each router
	LinkFlits         [][geom.NumLinkDirs]int64 // flits sent on each out-link
	Cycles            int64                     // observed cycles, for utilization
}

// Utilization returns the flits-per-cycle utilization of node's
// out-link in direction d over the observed cycles.
func (h Heatmap) Utilization(node int, d geom.Dir) float64 {
	if h.Cycles == 0 {
		return 0
	}
	return float64(h.LinkFlits[node][d]) / float64(h.Cycles)
}

// segment is one preallocated ring region.  buf never grows after
// Arm; n is the append cursor, reset by each flush.
type segment struct {
	buf []Event
	n   int
}

// Probe accumulates one run's time series and heatmaps.  The zero
// value is disarmed and ignores every event; call Arm (sim.Run does it
// when Options.Probe is set) before driving a fabric.
//
//hook:nil-disabled
type Probe struct {
	cfg   Config
	armed bool

	// Event ring: segs[node] for router events, segs[len-1] for the
	// driver lifecycle/tick stream.
	segs      []segment
	taps      []Tap
	nextDrain int64
	stride    int64 // drain pacing, min(Every, drainStride)

	// Drain-side accumulation.  The series is flat —
	// dom[bucket*Domains+d] — so folding an event costs one indexed
	// store, never a per-bucket pointer chase.
	dom  []DomainSlice
	net  []int64 // per-bucket NetInFlight
	occ  []int64 // per-domain live occupancy (created − ejected − dropped, unwindowed)
	last int64   // last cycle observed by any event

	routerFlits       []int64
	routerDeflections []int64
	routerEjections   []int64
	linkFlits         [][geom.NumLinkDirs]int64
}

// Armed reports whether the probe has been armed for a run.
func (pr *Probe) Armed() bool { return pr != nil && pr.armed }

// Arm resets the probe and configures it for one run.  Re-arming
// discards all previously recorded data and detaches any taps.
func (pr *Probe) Arm(cfg Config) {
	if cfg.Every <= 0 {
		cfg.Every = DefaultEvery
	}
	nodes := cfg.Mesh.Nodes()
	segCap := ringBudget / nodes
	if segCap < minSegCap {
		segCap = minSegCap
	}
	if segCap > maxSegCap {
		segCap = maxSegCap
	}
	pr.cfg = cfg
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
	pr.taps = nil
	pr.stride = cfg.Every
	if pr.stride > drainStride {
		pr.stride = drainStride
	}
	pr.nextDrain = pr.stride

	// Preallocate the series for the bounded part of the run so that
	// steady-state probed stepping stays allocation-free; drain-phase
	// buckets past MeasureEnd (and unbounded runs) grow amortized.
	nb := 64
	if cfg.MeasureEnd > 0 {
		if nb = int(cfg.MeasureEnd/cfg.Every) + 8; nb > 1<<16 {
			nb = 1 << 16
		}
	}
	pr.dom = make([]DomainSlice, 0, nb*cfg.Domains)
	pr.net = make([]int64, 0, nb)
	pr.occ = make([]int64, cfg.Domains)
	pr.last = -1
	pr.routerFlits = make([]int64, nodes)
	pr.routerDeflections = make([]int64, nodes)
	pr.routerEjections = make([]int64, nodes)
	pr.linkFlits = make([][geom.NumLinkDirs]int64, nodes)
}

// AttachTap subscribes t to drained event batches (flight recorder,
// span exporters).  Taps attach after Arm; Arm detaches them.
func (pr *Probe) AttachTap(t Tap) {
	pr.taps = append(pr.taps, t)
}

// inWindow mirrors stats.Collector.InWindow.
func (pr *Probe) inWindow(createdAt int64) bool {
	return createdAt >= pr.cfg.WarmupEnd &&
		(pr.cfg.MeasureEnd == 0 || createdAt < pr.cfg.MeasureEnd)
}

// bucketIdx returns the series index of cycle's bucket, growing the
// flat series as the run advances (amortized; pre-sized by Arm for
// the measured span).
func (pr *Probe) bucketIdx(cycle int64) int {
	idx := int(cycle / pr.cfg.Every)
	for len(pr.net) <= idx {
		pr.net = append(pr.net, 0)
		for d := 0; d < pr.cfg.Domains; d++ {
			pr.dom = append(pr.dom, DomainSlice{})
		}
	}
	return idx
}

// slot returns the series cell for domain d in cycle's bucket.
func (pr *Probe) slot(cycle int64, d int) *DomainSlice {
	return &pr.dom[pr.bucketIdx(cycle)*pr.cfg.Domains+d]
}

// foldRouter drains one non-empty router segment's batch.  Router
// segments are homogeneous — every event is a link traversal at the
// segment's own router, in cycle order — so this skips the per-event
// kind dispatch of the driver-stream fold and sums the router's
// counters locally.
func (pr *Probe) foldRouter(b []Event) {
	pr.last = max(pr.last, b[len(b)-1].Cycle)
	var flits, defl int64
	var link [geom.NumLinkDirs]int64
	for i := range b {
		e := &b[i]
		if !pr.inWindow(e.Created) {
			continue
		}
		f := int64(e.Flits)
		flits += f
		link[e.Dir] += f
		if e.Kind == KindDeflect {
			defl++
			pr.slot(e.Cycle, int(e.Domain)).Deflections++
		}
	}
	node := b[0].Node
	pr.routerFlits[node] += flits
	pr.routerDeflections[node] += defl
	for d, f := range link {
		pr.linkFlits[node][d] += f
	}
}

// fold drains one driver-stream batch into the interval series and
// heatmaps.  This is where all windowing and bucketing happens — once
// per batch, off the router hot path.
func (pr *Probe) fold(b []Event) {
	for i := range b {
		e := &b[i]
		if e.Cycle > pr.last {
			pr.last = e.Cycle
		}
		switch e.Kind {
		case KindCreated:
			pr.occ[e.Domain]++
			if pr.inWindow(e.Created) {
				pr.slot(e.Cycle, int(e.Domain)).Created++
			}
		case KindRefused:
			if pr.inWindow(e.Cycle) {
				pr.slot(e.Cycle, int(e.Domain)).Refused++
			}
		case KindInjected:
			if pr.inWindow(e.Created) {
				pr.slot(e.Cycle, int(e.Domain)).Injected++
			}
		case KindEjected:
			pr.occ[e.Domain]--
			if pr.inWindow(e.Created) {
				s := pr.slot(e.Cycle, int(e.Domain))
				s.Ejected++
				s.LatencySum += e.Cycle - e.Created
				pr.routerEjections[e.Node]++
			}
		case KindDropped:
			pr.occ[e.Domain]--
			if pr.inWindow(e.Created) {
				pr.slot(e.Cycle, int(e.Domain)).Dropped++
			}
		case KindRetransmit:
			if pr.inWindow(e.Cycle) {
				pr.slot(e.Cycle, int(e.Domain)).Retransmits++
			}
		case KindLinkBusy, KindDeflect:
			if !pr.inWindow(e.Created) {
				continue
			}
			pr.routerFlits[e.Node] += int64(e.Flits)
			pr.linkFlits[e.Node][e.Dir] += int64(e.Flits)
			if e.Kind == KindDeflect {
				pr.routerDeflections[e.Node]++
				pr.slot(e.Cycle, int(e.Domain)).Deflections++
			}
		case KindTick:
			idx := pr.bucketIdx(e.Cycle)
			pr.net[idx] = int64(e.Flits)
			row := pr.dom[idx*pr.cfg.Domains : (idx+1)*pr.cfg.Domains]
			for d := range row {
				row[d].InFlight = pr.occ[d]
			}
		}
	}
}

// flush folds one driver segment and fans its batch out to the taps.
func (pr *Probe) flush(s *segment) {
	if s.n == 0 {
		return
	}
	b := s.buf[:s.n]
	pr.fold(b)
	for _, t := range pr.taps {
		t.Consume(b)
	}
	s.n = 0
}

// flushRouter folds one router segment — homogeneous traversal
// events — and fans its batch out to the taps.
func (pr *Probe) flushRouter(s *segment) {
	if s.n == 0 {
		return
	}
	b := s.buf[:s.n]
	pr.foldRouter(b)
	for _, t := range pr.taps {
		t.Consume(b)
	}
	s.n = 0
}

// Flush drains every ring segment — router segments in node order,
// the driver stream last — into the series, heatmaps and taps.  The
// accessors below call it implicitly; sim.Run calls it before taking
// a flight-recorder snapshot so the dump holds the newest events.
func (pr *Probe) Flush() {
	if pr == nil || !pr.armed {
		return
	}
	for i := 0; i < len(pr.segs)-1; i++ {
		pr.flushRouter(&pr.segs[i])
	}
	pr.flush(pr.driver())
}

// driver returns the driver lifecycle segment; callers hold the
// pr==nil/armed guard.
func (pr *Probe) driver() *segment { return &pr.segs[len(pr.segs)-1] }

// lifecycle appends one driver-stream packet event at cycle.
func (pr *Probe) lifecycle(kind Kind, p *packet.Packet, cycle int64, node int32) {
	s := pr.driver()
	if s.n == len(s.buf) {
		pr.flush(s)
	}
	e := &s.buf[s.n]
	s.n++
	e.Cycle = cycle
	e.Created = p.CreatedAt
	e.ID = p.ID
	e.Node = node
	e.Src = int32(pr.cfg.Mesh.ID(p.Src))
	e.Dst = int32(pr.cfg.Mesh.ID(p.Dst))
	e.Flits = int32(p.Size)
	e.Domain = int16(p.Domain)
	e.Kind = kind
	e.Dir = 0
}

// Created records an in-window NI acceptance (and domain occupancy for
// any packet).  Wired from stats.Collector.
func (pr *Probe) Created(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	pr.lifecycle(KindCreated, p, p.CreatedAt, -1)
}

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

// Injected records an in-window packet entering the network.
func (pr *Probe) Injected(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	pr.lifecycle(KindInjected, p, p.InjectedAt, -1)
}

// Ejected records a delivery: the time series entry at the ejection
// cycle and the destination router's heatmap cell.
func (pr *Probe) Ejected(p *packet.Packet) {
	if pr == nil || !pr.armed {
		return
	}
	pr.lifecycle(KindEjected, p, p.EjectedAt, int32(pr.cfg.Mesh.ID(p.Dst)))
}

// Dropped records a packet discarded by the fault machinery after its
// retransmission budget ran out; like an ejection it ends the
// packet's occupancy.
func (pr *Probe) Dropped(p *packet.Packet, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	pr.lifecycle(KindDropped, p, now, -1)
}

// Retransmitted records one source retransmission attempt after a
// fault drop.
func (pr *Probe) Retransmitted(p *packet.Packet, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	pr.lifecycle(KindRetransmit, p, now, -1)
}

// Traverse is the router hot-path hook: flits of p left node through
// out-link dir at cycle now; deflected marks an unproductive hop.
// Packet-granular fabrics call it once per forward with flits =
// p.Size; flit-granular (VC) fabrics once per link flit with flits = 1.
// It appends one event to the node's ring segment and nothing more —
// the accounting happens at drain time.
func (pr *Probe) Traverse(node int, dir geom.Dir, p *packet.Packet, flits int, deflected bool, now int64) {
	if pr == nil || !pr.armed {
		return
	}
	s := &pr.segs[node]
	n := s.n
	if n == len(s.buf) {
		pr.flushRouter(s)
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
// whole ring drains once per Every cycles.
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
		pr.nextDrain = now + pr.stride
	}
}

// Intervals returns the recorded time series.  The trailing bucket of
// a run whose length is not a multiple of Every is truncated to the
// last observed cycle (End = last+1), so interval widths are exact.
func (pr *Probe) Intervals() []Interval {
	if pr == nil || !pr.armed {
		return nil
	}
	pr.Flush()
	nb := len(pr.net)
	if nb == 0 {
		return nil
	}
	D := pr.cfg.Domains
	out := make([]Interval, nb)
	for i := range out {
		start := int64(i) * pr.cfg.Every
		ds := make([]DomainSlice, D)
		copy(ds, pr.dom[i*D:(i+1)*D])
		out[i] = Interval{Start: start, End: start + pr.cfg.Every, NetInFlight: pr.net[i], Domains: ds}
	}
	if end := pr.last + 1; end < out[nb-1].End {
		out[nb-1].End = end
	}
	return out
}

// Heatmap returns the spatial counters accumulated so far.  Cycles is
// the utilization denominator: the measurement-window length, or the
// observed post-warm-up span when the window is unbounded.
func (pr *Probe) Heatmap() Heatmap {
	if pr == nil || !pr.armed {
		return Heatmap{}
	}
	pr.Flush()
	cycles := pr.cfg.MeasureEnd - pr.cfg.WarmupEnd
	if pr.cfg.MeasureEnd == 0 {
		if cycles = pr.last + 1 - pr.cfg.WarmupEnd; cycles < 0 {
			cycles = 0
		}
	}
	return Heatmap{
		Mesh:              pr.cfg.Mesh,
		RouterFlits:       pr.routerFlits,
		RouterDeflections: pr.routerDeflections,
		RouterEjections:   pr.routerEjections,
		LinkFlits:         pr.linkFlits,
		Cycles:            cycles,
	}
}

// Totals sums the time series per domain — the reconciliation point
// against stats.Domain (exact once LeftInFlight is zero).
func (pr *Probe) Totals() []DomainSlice {
	if pr == nil {
		return nil
	}
	pr.Flush()
	tot := make([]DomainSlice, pr.cfg.Domains)
	D := pr.cfg.Domains
	for i := 0; i+D <= len(pr.dom); i += D {
		for d := 0; d < D; d++ {
			s := &pr.dom[i+d]
			tot[d].Created += s.Created
			tot[d].Refused += s.Refused
			tot[d].Injected += s.Injected
			tot[d].Ejected += s.Ejected
			tot[d].Deflections += s.Deflections
			tot[d].Dropped += s.Dropped
			tot[d].Retransmits += s.Retransmits
			tot[d].LatencySum += s.LatencySum
		}
	}
	return tot
}

// Domains returns the number of domains the probe was armed for.
func (pr *Probe) Domains() int {
	if pr == nil {
		return 0
	}
	return pr.cfg.Domains
}

// Every returns the armed bucket width in cycles.
func (pr *Probe) Every() int64 {
	if pr == nil {
		return 0
	}
	return pr.cfg.Every
}
