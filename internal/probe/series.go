package probe

import (
	"math"

	"surfbless/internal/geom"
)

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

	// from and to bound the creation window [WarmupEnd, MeasureEnd),
	// an unbounded end as MaxInt64, so a window test is two compares.
	from, to int64
	// bucket is the series index of the cycles [bucketLo,
	// bucketLo+every), and cur its cells, the row last returned.
	bucketLo int64
	bucket   int
	cur      []DomainSlice

	// The series is flat — dom[bucket*Domains+d] — so folding an event
	// costs one indexed store, never a per-bucket pointer chase.
	dom  []DomainSlice
	net  []int64 // per-bucket NetInFlight
	occ  []int64 // per-domain live occupancy (created − ejected − dropped, unwindowed)
	last int64   // last cycle observed by any event

	// routers holds each router's out-link flits and deflections, the
	// counters a router batch folds into, side by side; routerEjections
	// is folded from the driver stream.
	routers         []routerHeat
	routerEjections []int64
}

// routerHeat is one router's spatial counters.  Its forwarded flits
// are the sum over its out-links.
type routerHeat struct {
	link [geom.NumLinkDirs]int64
	defl int64
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
// past MeasureEnd (and unbounded runs) grow amortized.  The heatmaps
// read router events.
func (s *Series) Arm(cfg Config) bool {
	nodes := cfg.Mesh.Nodes()
	s.cfg = cfg
	s.from, s.to = cfg.WarmupEnd, cfg.MeasureEnd
	if s.to == 0 {
		s.to = math.MaxInt64
	}
	s.bucketLo, s.bucket = -s.every, -1
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
	s.routers = make([]routerHeat, nodes)
	s.routerEjections = make([]int64, nodes)
	return true
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
	return createdAt >= s.from && createdAt < s.to
}

// openBucket makes cycle's bucket the current one, growing the flat
// series as the run advances (amortized; pre-sized by Arm for the
// measured span).  A drain's events fall in one or two buckets, so the
// folds test an event's cycle against the current bucket and seldom
// divide.
func (s *Series) openBucket(cycle int64) {
	idx := int(cycle / s.every)
	for len(s.net) <= idx {
		s.net = append(s.net, 0)
		for d := 0; d < s.cfg.Domains; d++ {
			s.dom = append(s.dom, DomainSlice{})
		}
	}
	s.bucketLo, s.bucket = int64(idx)*s.every, idx
	s.cur = s.dom[idx*s.cfg.Domains : (idx+1)*s.cfg.Domains]
}

// foldRouter drains one router segment's batch.  Router segments are
// homogeneous — every event is a link traversal at the segment's own
// router, in cycle order — so this skips the per-event kind dispatch
// of the driver-stream fold and folds into the router's counters.
func (s *Series) foldRouter(b []Event) {
	s.last = max(s.last, b[len(b)-1].Cycle)
	r := &s.routers[b[0].Node]
	from, to := s.from, s.to
	for i := range b {
		e := &b[i]
		if e.Created < from || e.Created >= to {
			continue
		}
		r.link[e.Dir] += int64(e.Flits)
		if e.Kind == KindDeflect {
			r.defl++
			if uint64(e.Cycle-s.bucketLo) >= uint64(s.every) {
				s.openBucket(e.Cycle)
			}
			s.cur[e.Domain].Deflections++
		}
	}
}

// fold drains one driver-stream batch into the interval series and the
// ejection heatmap.  This is where the lifecycle windowing and
// bucketing happens — once per batch, off the router hot path.
func (s *Series) fold(b []Event) {
	s.last = max(s.last, b[len(b)-1].Cycle)
	for i := range b {
		e := &b[i]
		if uint64(e.Cycle-s.bucketLo) >= uint64(s.every) {
			s.openBucket(e.Cycle)
		}
		c := &s.cur[e.Domain]
		switch e.Kind {
		case KindCreated:
			s.occ[e.Domain]++
			if s.inWindow(e.Created) {
				c.Created++
			}
		case KindRefused:
			if s.inWindow(e.Cycle) {
				c.Refused++
			}
		case KindInjected:
			if s.inWindow(e.Created) {
				c.Injected++
			}
		case KindEjected:
			s.occ[e.Domain]--
			if s.inWindow(e.Created) {
				c.Ejected++
				c.LatencySum += e.Cycle - e.Created
				s.routerEjections[e.Node]++
			}
		case KindDropped:
			s.occ[e.Domain]--
			if s.inWindow(e.Created) {
				c.Dropped++
			}
		case KindRetransmit:
			if s.inWindow(e.Cycle) {
				c.Retransmits++
			}
		case KindTick:
			s.net[s.bucket] = int64(e.Flits)
			for d := range s.cur {
				s.cur[d].InFlight = s.occ[d]
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
	h := Heatmap{Mesh: s.cfg.Mesh, RouterEjections: s.routerEjections, Cycles: cycles}
	if n := len(s.routers); n > 0 {
		h.RouterFlits, h.RouterDeflections = make([]int64, n), make([]int64, n)
		h.LinkFlits = make([][geom.NumLinkDirs]int64, n)
		for i, r := range s.routers {
			h.LinkFlits[i], h.RouterDeflections[i] = r.link, r.defl
			for _, f := range r.link {
				h.RouterFlits[i] += f
			}
		}
	}
	return h
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
