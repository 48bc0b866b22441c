package probe

import "surfbless/internal/geom"

// DefaultEvery is the interval width of a Series built without one.
const DefaultEvery = 100

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
	End   int64 // one past the last observed cycle (Start+width, except a trailing partial bucket)
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

// Series is the tap that folds a run's event stream into per-interval,
// per-domain time series and spatial heatmaps — the time-resolved view
// behind Fig. 5.
//
// Measurement discipline matches package stats exactly: only packets
// created inside the armed window [WarmupEnd, MeasureEnd) contribute,
// so the totals reconcile with the collector's stats.Domain aggregates
// (to the packet, once the network has fully drained).  Events are
// bucketed by the cycle they happen at, which may fall after
// MeasureEnd for in-window packets that eject during the drain phase.
// Occupancy is unwindowed.  The accessors read what the ring has
// drained so far; sim.Run flushes it when the run ends.
type Series struct {
	every int64
	cfg   Config

	// The series is flat — dom[bucket*Domains+d] — so folding an event
	// costs one indexed store, never a per-bucket pointer chase.
	dom  []DomainSlice
	net  []int64 // per-bucket NetInFlight
	occ  []int64 // per-domain live occupancy (created − ejected − dropped, unwindowed)
	last int64   // last cycle observed by any event

	routerFlits       []int64
	routerDeflections []int64
	routerEjections   []int64
	linkFlits         [][geom.NumLinkDirs]int64
}

// NewSeries returns a series bucketing every cycles (≤0 =
// DefaultEvery).  Use it as a tap of one run (sim.Options.Taps).
func NewSeries(every int64) *Series {
	if every <= 0 {
		every = DefaultEvery
	}
	return &Series{every: every}
}

// Arm implements Tap: it discards any previous run's data and sizes
// the series for cfg.  The bounded part of the run is preallocated so
// that steady-state observed stepping stays allocation-free; buckets
// past MeasureEnd (and unbounded runs) grow amortized.
func (s *Series) Arm(cfg Config) {
	nodes := cfg.Mesh.Nodes()
	s.cfg = cfg
	nb := 64
	if cfg.MeasureEnd > 0 {
		if nb = int(cfg.MeasureEnd/s.every) + 8; nb > 1<<16 {
			nb = 1 << 16
		}
	}
	s.dom = make([]DomainSlice, 0, nb*cfg.Domains)
	s.net = make([]int64, 0, nb)
	s.occ = make([]int64, cfg.Domains)
	s.last = -1
	s.routerFlits = make([]int64, nodes)
	s.routerDeflections = make([]int64, nodes)
	s.routerEjections = make([]int64, nodes)
	s.linkFlits = make([][geom.NumLinkDirs]int64, nodes)
}

// Consume implements Tap: a router segment's batch (link traversals)
// goes to foldRouter, the driver stream to fold.
func (s *Series) Consume(b []Event) {
	if len(b) == 0 {
		return
	}
	if k := b[0].Kind; k == KindLinkBusy || k == KindDeflect {
		s.foldRouter(b)
	} else {
		s.fold(b)
	}
}

// inWindow mirrors stats.Collector.InWindow.
func (s *Series) inWindow(createdAt int64) bool {
	return createdAt >= s.cfg.WarmupEnd &&
		(s.cfg.MeasureEnd == 0 || createdAt < s.cfg.MeasureEnd)
}

// bucketIdx returns the series index of cycle's bucket, growing the
// flat series as the run advances (amortized; pre-sized by Arm for
// the measured span).
func (s *Series) bucketIdx(cycle int64) int {
	idx := int(cycle / s.every)
	for len(s.net) <= idx {
		s.net = append(s.net, 0)
		for d := 0; d < s.cfg.Domains; d++ {
			s.dom = append(s.dom, DomainSlice{})
		}
	}
	return idx
}

// slot returns the series cell for domain d in cycle's bucket.
func (s *Series) slot(cycle int64, d int) *DomainSlice {
	return &s.dom[s.bucketIdx(cycle)*s.cfg.Domains+d]
}

// foldRouter drains one router segment's batch.  Router segments are
// homogeneous — every event is a link traversal at the segment's own
// router, in cycle order — so this skips the per-event kind dispatch
// of the driver-stream fold and sums the router's counters locally.
func (s *Series) foldRouter(b []Event) {
	s.last = max(s.last, b[len(b)-1].Cycle)
	var flits, defl int64
	var link [geom.NumLinkDirs]int64
	for i := range b {
		e := &b[i]
		if !s.inWindow(e.Created) {
			continue
		}
		f := int64(e.Flits)
		flits += f
		link[e.Dir] += f
		if e.Kind == KindDeflect {
			defl++
			s.slot(e.Cycle, int(e.Domain)).Deflections++
		}
	}
	node := b[0].Node
	s.routerFlits[node] += flits
	s.routerDeflections[node] += defl
	for d, f := range link {
		s.linkFlits[node][d] += f
	}
}

// fold drains one driver-stream batch into the interval series and the
// ejection heatmap.  This is where the lifecycle windowing and
// bucketing happens — once per batch, off the router hot path.
func (s *Series) fold(b []Event) {
	for i := range b {
		e := &b[i]
		if e.Cycle > s.last {
			s.last = e.Cycle
		}
		switch e.Kind {
		case KindCreated:
			s.occ[e.Domain]++
			if s.inWindow(e.Created) {
				s.slot(e.Cycle, int(e.Domain)).Created++
			}
		case KindRefused:
			if s.inWindow(e.Cycle) {
				s.slot(e.Cycle, int(e.Domain)).Refused++
			}
		case KindInjected:
			if s.inWindow(e.Created) {
				s.slot(e.Cycle, int(e.Domain)).Injected++
			}
		case KindEjected:
			s.occ[e.Domain]--
			if s.inWindow(e.Created) {
				sl := s.slot(e.Cycle, int(e.Domain))
				sl.Ejected++
				sl.LatencySum += e.Cycle - e.Created
				s.routerEjections[e.Node]++
			}
		case KindDropped:
			s.occ[e.Domain]--
			if s.inWindow(e.Created) {
				s.slot(e.Cycle, int(e.Domain)).Dropped++
			}
		case KindRetransmit:
			if s.inWindow(e.Cycle) {
				s.slot(e.Cycle, int(e.Domain)).Retransmits++
			}
		case KindTick:
			idx := s.bucketIdx(e.Cycle)
			s.net[idx] = int64(e.Flits)
			row := s.dom[idx*s.cfg.Domains : (idx+1)*s.cfg.Domains]
			for d := range row {
				row[d].InFlight = s.occ[d]
			}
		}
	}
}

// Intervals returns the recorded time series.  The trailing bucket of
// a run whose length is not a multiple of the width is truncated to
// the last observed cycle (End = last+1), so interval widths are
// exact.
func (s *Series) Intervals() []Interval {
	nb := len(s.net)
	if nb == 0 {
		return nil
	}
	D := s.cfg.Domains
	out := make([]Interval, nb)
	for i := range out {
		start := int64(i) * s.every
		ds := make([]DomainSlice, D)
		copy(ds, s.dom[i*D:(i+1)*D])
		out[i] = Interval{Start: start, End: start + s.every, NetInFlight: s.net[i], Domains: ds}
	}
	if end := s.last + 1; end < out[nb-1].End {
		out[nb-1].End = end
	}
	return out
}

// Heatmap returns the spatial counters accumulated so far.  Cycles is
// the utilization denominator: the measurement-window length, or the
// observed post-warm-up span when the window is unbounded.
func (s *Series) Heatmap() Heatmap {
	cycles := s.cfg.MeasureEnd - s.cfg.WarmupEnd
	if s.cfg.MeasureEnd == 0 {
		if cycles = s.last + 1 - s.cfg.WarmupEnd; cycles < 0 {
			cycles = 0
		}
	}
	return Heatmap{
		Mesh:              s.cfg.Mesh,
		RouterFlits:       s.routerFlits,
		RouterDeflections: s.routerDeflections,
		RouterEjections:   s.routerEjections,
		LinkFlits:         s.linkFlits,
		Cycles:            cycles,
	}
}

// Totals sums the time series per domain — the reconciliation point
// against stats.Domain (exact once LeftInFlight is zero).
func (s *Series) Totals() []DomainSlice {
	D := s.cfg.Domains
	tot := make([]DomainSlice, D)
	for b := range s.net {
		for d := 0; d < D; d++ {
			c := &s.dom[b*D+d]
			tot[d].Created += c.Created
			tot[d].Refused += c.Refused
			tot[d].Injected += c.Injected
			tot[d].Ejected += c.Ejected
			tot[d].Deflections += c.Deflections
			tot[d].Dropped += c.Dropped
			tot[d].Retransmits += c.Retransmits
			tot[d].LatencySum += c.LatencySum
		}
	}
	return tot
}
