// Package stats accumulates the metrics the paper reports: average
// packet latency (with its queue/network breakdown from Fig. 9),
// accepted throughput, hop and deflection counts — globally and per
// interference domain (Figs. 5 and 7 plot per-domain series).
//
// Measurement discipline: packets created inside the measurement window
// [WarmupEnd, MeasureEnd) are counted; everything else (warm-up and
// drain traffic) still flows through the network but leaves no trace in
// the averages.  MeasureEnd == 0 means "no upper bound".
//
// A Collector only aggregates.  The fabric kernel (router.Kernel) calls
// its lifecycle methods and reports the same events to the probe's
// event ring, where observers that need every event — the per-flow
// FlowTracker here, trace.Writer, the flight recorder — attach as
// probe taps.
package stats

import (
	"fmt"

	"surfbless/internal/packet"
)

// Domain accumulates metrics for one interference domain.
type Domain struct {
	Created  int64 // packets offered by the generator in-window
	Refused  int64 // offers rejected by a full NI queue (backpressure)
	Injected int64 // in-window packets that entered the network
	Ejected  int64 // in-window packets delivered

	TotalLatencySum   int64 // creation → ejection
	NetworkLatencySum int64 // injection → ejection
	QueueLatencySum   int64 // creation → injection
	MaxTotalLatency   int64

	Hops        int64
	Deflections int64
	FlitsMoved  int64 // ejected packets × size, for throughput in flits

	// Fault accounting (zero on fault-free runs).  Dropped counts
	// in-window packets discarded after exhausting their retransmission
	// budget; Retransmits counts every source retransmission attempt.
	Dropped     int64
	Retransmits int64
}

// AvgTotalLatency returns the mean creation-to-ejection latency in
// cycles, or 0 when nothing was delivered.
func (d Domain) AvgTotalLatency() float64 { return ratio(d.TotalLatencySum, d.Ejected) }

// AvgNetworkLatency returns the mean in-network latency in cycles.
func (d Domain) AvgNetworkLatency() float64 { return ratio(d.NetworkLatencySum, d.Ejected) }

// AvgQueueLatency returns the mean NI queueing latency in cycles.
func (d Domain) AvgQueueLatency() float64 { return ratio(d.QueueLatencySum, d.Ejected) }

// AvgHops returns the mean hop count of delivered packets.
func (d Domain) AvgHops() float64 { return ratio(d.Hops, d.Ejected) }

// AvgDeflections returns the mean deflections per delivered packet.
func (d Domain) AvgDeflections() float64 { return ratio(d.Deflections, d.Ejected) }

func ratio(sum, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// Collector gathers per-domain and aggregate statistics for one run.
type Collector struct {
	warmupEnd  int64
	measureEnd int64 // 0 = unbounded
	domains    []Domain
	histos     []Histogram // per-domain total-latency histograms (in-window)

	// Conservation accounting over the WHOLE run (not windowed), used
	// by tests to prove no packet is ever lost or duplicated.
	AllCreated  int64
	AllInjected int64
	AllEjected  int64
	AllDropped  int64

	// Per-domain whole-run totals backing the per-domain conservation
	// audit (created = ejected + dropped + in-flight must hold for each
	// domain separately, or a fault leaked packets across domains).
	allByDomain []domainTotals

	err error // first out-of-range domain seen (degraded, not fatal)
}

type domainTotals struct {
	created, injected, ejected, dropped int64
}

// NewCollector returns a collector for the given number of domains and
// measurement window.  measureEnd == 0 disables the upper bound.
func NewCollector(domains int, warmupEnd, measureEnd int64) *Collector {
	if domains < 1 {
		panic(fmt.Sprintf("stats: %d domains", domains))
	}
	if measureEnd != 0 && measureEnd < warmupEnd {
		panic(fmt.Sprintf("stats: window [%d,%d) inverted", warmupEnd, measureEnd))
	}
	return &Collector{
		warmupEnd:   warmupEnd,
		measureEnd:  measureEnd,
		domains:     make([]Domain, domains),
		histos:      make([]Histogram, domains),
		allByDomain: make([]domainTotals, domains),
	}
}

// InWindow reports whether a packet created at cycle t is measured.
func (c *Collector) InWindow(t int64) bool {
	return t >= c.warmupEnd && (c.measureEnd == 0 || t < c.measureEnd)
}

func (c *Collector) domain(i int) *Domain {
	return &c.domains[i]
}

// domainOK guards the domain index.  A bad domain used to crash the
// whole run with an index panic; a domain number ultimately comes from
// user-supplied config (traffic matrices, fault plans), so the first
// violation is recorded as an error — visible via Err() — and the
// sample is attributed to nothing rather than killing the sweep.
func (c *Collector) domainOK(i int) bool {
	if i >= 0 && i < len(c.domains) {
		return true
	}
	if c.err == nil {
		//nocvet:alloc first accounting violation is recorded at most once per run
		c.err = fmt.Errorf("stats: domain %d outside [0,%d)", i, len(c.domains))
	}
	return false
}

// Err returns the first accounting violation seen (nil when clean).
func (c *Collector) Err() error { return c.err }

// Created records a generator offer that was accepted by the NI.
func (c *Collector) Created(p *packet.Packet) {
	if !c.domainOK(p.Domain) {
		return
	}
	c.AllCreated++
	c.allByDomain[p.Domain].created++
	if c.InWindow(p.CreatedAt) {
		c.domain(p.Domain).Created++
	}
}

// Refused records a generator offer rejected by a full NI queue.
func (c *Collector) Refused(domain int, now int64) {
	if !c.domainOK(domain) {
		return
	}
	if c.InWindow(now) {
		c.domain(domain).Refused++
	}
}

// Injected records a packet entering the network.
func (c *Collector) Injected(p *packet.Packet) {
	if !c.domainOK(p.Domain) {
		return
	}
	c.AllInjected++
	c.allByDomain[p.Domain].injected++
	if c.InWindow(p.CreatedAt) {
		c.domain(p.Domain).Injected++
	}
}

// Ejected records a delivered packet and accumulates its latencies.
func (c *Collector) Ejected(p *packet.Packet) {
	if !c.domainOK(p.Domain) {
		return
	}
	c.AllEjected++
	c.allByDomain[p.Domain].ejected++
	if !c.InWindow(p.CreatedAt) {
		return
	}
	c.histos[p.Domain].Add(p.TotalLatency())
	d := c.domain(p.Domain)
	d.Ejected++
	tl := p.TotalLatency()
	d.TotalLatencySum += tl
	d.NetworkLatencySum += p.NetworkLatency()
	d.QueueLatencySum += p.QueueLatency()
	if tl > d.MaxTotalLatency {
		d.MaxTotalLatency = tl
	}
	d.Hops += int64(p.Hops)
	d.Deflections += int64(p.Deflections)
	d.FlitsMoved += int64(p.Size)
}

// Dropped records a packet discarded by the fault machinery after
// exhausting its retransmission budget.  A dropped packet leaves the
// network for good, so it participates in conservation like an
// ejection.
func (c *Collector) Dropped(p *packet.Packet, now int64) {
	if !c.domainOK(p.Domain) {
		return
	}
	c.AllDropped++
	c.allByDomain[p.Domain].dropped++
	if c.InWindow(p.CreatedAt) {
		c.domain(p.Domain).Dropped++
	}
}

// Retransmitted records one source retransmission attempt after a
// fault drop.  The packet stays in flight (it is queued for
// re-injection), so conservation totals are untouched.
func (c *Collector) Retransmitted(p *packet.Packet, now int64) {
	if !c.domainOK(p.Domain) {
		return
	}
	if c.InWindow(now) {
		c.domain(p.Domain).Retransmits++
	}
}

// Latency returns the in-window total-latency histogram of domain i.
func (c *Collector) Latency(i int) *Histogram { return &c.histos[i] }

// Domains returns the number of domains tracked.
func (c *Collector) Domains() int { return len(c.domains) }

// Domain returns a copy of the accumulated metrics for domain i.
func (c *Collector) Domain(i int) Domain { return c.domains[i] }

// Total returns the metrics summed over all domains.
func (c *Collector) Total() Domain {
	var t Domain
	for i := range c.domains {
		d := &c.domains[i]
		t.Created += d.Created
		t.Refused += d.Refused
		t.Injected += d.Injected
		t.Ejected += d.Ejected
		t.TotalLatencySum += d.TotalLatencySum
		t.NetworkLatencySum += d.NetworkLatencySum
		t.QueueLatencySum += d.QueueLatencySum
		if d.MaxTotalLatency > t.MaxTotalLatency {
			t.MaxTotalLatency = d.MaxTotalLatency
		}
		t.Hops += d.Hops
		t.Deflections += d.Deflections
		t.FlitsMoved += d.FlitsMoved
		t.Dropped += d.Dropped
		t.Retransmits += d.Retransmits
	}
	return t
}

// Throughput returns the accepted packet rate of domain i in
// packets/node/cycle over a measurement span of the given cycles.
func (c *Collector) Throughput(i, nodes int, cycles int64) float64 {
	if nodes <= 0 || cycles <= 0 {
		return 0
	}
	return float64(c.domain(i).Ejected) / float64(nodes) / float64(cycles)
}

// CheckConservation verifies created ≥ injected ≥ ejected + dropped
// and that exactly inFlight packets remain unaccounted (buffered, on
// links, or awaiting retransmission) — in aggregate AND per domain, so
// a fault can never silently move a packet across an interference
// boundary.
func (c *Collector) CheckConservation(inFlight int) error {
	if c.AllInjected > c.AllCreated {
		return fmt.Errorf("stats: injected %d > created %d", c.AllInjected, c.AllCreated)
	}
	if c.AllEjected+c.AllDropped > c.AllInjected {
		return fmt.Errorf("stats: ejected %d + dropped %d > injected %d", c.AllEjected, c.AllDropped, c.AllInjected)
	}
	if got := c.AllCreated - c.AllEjected - c.AllDropped; got != int64(inFlight) {
		return fmt.Errorf("stats: %d packets unaccounted, fabric reports %d in flight", got, inFlight)
	}
	var sumLeft int64
	for i, d := range c.allByDomain {
		if d.injected > d.created {
			return fmt.Errorf("stats: domain %d: injected %d > created %d", i, d.injected, d.created)
		}
		if d.ejected+d.dropped > d.injected {
			return fmt.Errorf("stats: domain %d: ejected %d + dropped %d > injected %d", i, d.ejected, d.dropped, d.injected)
		}
		sumLeft += d.created - d.ejected - d.dropped
	}
	if sumLeft != int64(inFlight) {
		return fmt.Errorf("stats: per-domain residue %d ≠ %d in flight", sumLeft, inFlight)
	}
	return nil
}
