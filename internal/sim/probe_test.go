package sim

import (
	"reflect"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// probedRun executes one SB run tapped by a probe.Series and a drain
// budget generous enough to empty the network, so the series' totals
// must reconcile with the collector exactly.  shards > 1 steps the mesh
// on the sharded path.
func probedRun(t *testing.T, sources []traffic.Source, every int64, shards int) (Result, *probe.Series) {
	t.Helper()
	cfg := config.Default(config.SB)
	cfg.Domains = len(sources)
	s := probe.NewSeries(every)
	res, err := Run(Options{
		Cfg:        cfg,
		Pattern:    traffic.UniformRandom,
		Sources:    sources,
		Warmup:     500,
		Measure:    3000,
		Drain:      50000,
		Seed:       7,
		AuditEvery: 500,
		Taps:       []probe.Tap{s},
		Shards:     shards,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftInFlight != 0 {
		t.Fatalf("network did not drain: %d left in flight", res.LeftInFlight)
	}
	return res, s
}

// TestProbeReconciliation is the exactness contract: on a drained 8×8
// SB run, a Series' per-domain time-series totals and its heatmap sums
// must equal the collector's aggregate stats to the packet — on
// the serial path and, identically, on the sharded path (router
// segments are tile-local and drained at the per-cycle barrier, so
// their contents interleave deterministically across tiles).
func TestProbeReconciliation(t *testing.T) {
	res, p := probedRun(t, ctrlSources(2, 0.05), 100, 1)
	reconcileProbe(t, res, p)

	resSh, pSh := probedRun(t, ctrlSources(2, 0.05), 100, 4)
	reconcileProbe(t, resSh, pSh)
	if !reflect.DeepEqual(res, resSh) {
		t.Errorf("sharding changed the probed result:\n%+v\n%+v", res, resSh)
	}
	if !reflect.DeepEqual(p.Totals(), pSh.Totals()) {
		t.Errorf("sharding changed series totals:\nserial %+v\nsharded %+v", p.Totals(), pSh.Totals())
	}
	if !reflect.DeepEqual(p.Heatmap(), pSh.Heatmap()) {
		t.Error("sharding changed the series heatmap")
	}
}

func reconcileProbe(t *testing.T, res Result, p *probe.Series) {
	t.Helper()
	tot := p.Totals()
	for d := range res.Domains {
		want := res.Domains[d]
		got := tot[d]
		if got.Created != want.Created || got.Refused != want.Refused ||
			got.Injected != want.Injected || got.Ejected != want.Ejected {
			t.Errorf("domain %d lifecycle: probe %+v vs stats %+v", d, got, want)
		}
		if got.Deflections != want.Deflections {
			t.Errorf("domain %d deflections: probe %d vs stats %d", d, got.Deflections, want.Deflections)
		}
		if got.LatencySum != want.TotalLatencySum {
			t.Errorf("domain %d latency sum: probe %d vs stats %d", d, got.LatencySum, want.TotalLatencySum)
		}
	}

	h := p.Heatmap()
	var ej, defl, routerFlits, linkFlits int64
	for id := range h.RouterEjections {
		ej += h.RouterEjections[id]
		defl += h.RouterDeflections[id]
		routerFlits += h.RouterFlits[id]
		for d := 0; d < geom.NumLinkDirs; d++ {
			linkFlits += h.LinkFlits[id][d]
		}
	}
	if ej != res.Total.Ejected {
		t.Errorf("heatmap ejections %d != collector total %d", ej, res.Total.Ejected)
	}
	if defl != res.Total.Deflections {
		t.Errorf("heatmap deflections %d != collector total %d", defl, res.Total.Deflections)
	}
	// Every forwarded flit crosses exactly one out-link.
	if routerFlits != linkFlits {
		t.Errorf("router flits %d != link flits %d", routerFlits, linkFlits)
	}
	if routerFlits == 0 {
		t.Error("no traversals recorded — router hook not wired")
	}
}

// TestFlightRecorderShardedDeterministic: under sharded stepping the
// probe ring is drained once per cycle at the barrier, router segment
// by router segment in node order, so the event stream a flight
// recorder consumes — and therefore its dump — is a pure function of
// the run: two identical sharded runs must snapshot identically.
func TestFlightRecorderShardedDeterministic(t *testing.T) {
	record := func() []probe.Event {
		cfg := config.Default(config.SB)
		cfg.Domains = 2
		rec := probe.NewFlightRecorder(256)
		_, err := Run(Options{
			Cfg:     cfg,
			Pattern: traffic.UniformRandom,
			Sources: ctrlSources(2, 0.05),
			Warmup:  100,
			Measure: 1000,
			Drain:   20000,
			Seed:    7,
			Taps:    []probe.Tap{rec},
			Shards:  4,
		})
		if err != nil {
			t.Fatal(err)
		}
		snap := rec.Snapshot()
		if len(snap) == 0 {
			t.Fatal("flight recorder captured nothing")
		}
		return snap
	}
	a, b := record(), record()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("identical sharded runs produced different flight snapshots (%d vs %d events)", len(a), len(b))
	}
}

// TestProbeIntervalWidths: a measured span that is not a multiple of
// the bucket width ends in a truncated interval, and interval edges
// tile the run without gaps.
func TestProbeIntervalWidths(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Domains = 1
	p := probe.NewSeries(500)
	res, err := Run(Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(1, 0.05),
		Warmup:  0, Measure: 1250, Drain: 20000,
		Seed: 3,
		Taps: []probe.Tap{p},
	})
	if err != nil {
		t.Fatal(err)
	}
	ivs := p.Intervals()
	if len(ivs) < 3 {
		t.Fatalf("got %d intervals, want ≥3", len(ivs))
	}
	for i := 1; i < len(ivs); i++ {
		if ivs[i].Start != ivs[i-1].End {
			t.Errorf("gap between interval %d end %d and %d start %d", i-1, ivs[i-1].End, i, ivs[i].Start)
		}
	}
	last := ivs[len(ivs)-1]
	if last.End != res.Cycles {
		t.Errorf("final interval ends at %d, run simulated %d cycles", last.End, res.Cycles)
	}
	if last.End-last.Start >= 500 && res.Cycles%500 != 0 {
		t.Errorf("trailing interval [%d,%d) not truncated", last.Start, last.End)
	}
}

// TestProbeQuietDomainFlat is the confinement claim, time-resolved: on
// SB, a lightly loaded victim domain's per-interval latency stays flat
// while the other domain is driven into saturation.
func TestProbeQuietDomainFlat(t *testing.T) {
	res, p := probedRun(t, []traffic.Source{
		{Rate: 0.05, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.30, Class: packet.Ctrl, VNet: -1},
	}, 100, 1)

	// The hostile domain must actually saturate: backpressure shows up
	// as refusals and its latency dwarfs the victim's.
	hostile := res.Domains[1]
	if hostile.Refused == 0 {
		t.Fatalf("hostile domain saw no refusals at rate 0.30 — not saturated (%+v)", hostile)
	}
	victim := res.Domains[0]
	if hostile.AvgTotalLatency() < 2*victim.AvgTotalLatency() {
		t.Errorf("hostile latency %.1f not clearly above victim %.1f",
			hostile.AvgTotalLatency(), victim.AvgTotalLatency())
	}

	// Victim per-interval latency: every measured interval stays within
	// 2.5× the run mean — no interference-driven spikes.
	mean := victim.AvgTotalLatency()
	var worst float64
	for _, iv := range p.Intervals() {
		s := iv.Domains[0]
		if s.Ejected == 0 {
			continue
		}
		if m := s.MeanLatency(); m > worst {
			worst = m
		}
	}
	if worst > 2.5*mean {
		t.Errorf("victim interval latency spiked to %.1f (run mean %.1f) despite confinement", worst, mean)
	}
}

// TestRunCachedBypassesForObservers: a tapped run must hit the
// simulator even when the cache already holds the point — a cache hit
// would leave the tap empty.
func TestRunCachedBypassesForObservers(t *testing.T) {
	c, err := simcache.New(simcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default(config.SB)
	cfg.Domains = 1
	o := Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(1, 0.05),
		Warmup:  100, Measure: 500, Drain: 20000,
		Seed: 11,
	}
	// Warm the cache with an unobserved run.
	if _, err := RunCached(o, c); err != nil {
		t.Fatal(err)
	}
	p := probe.NewSeries(100)
	o.Taps = []probe.Tap{p}
	res, err := RunCached(o, c)
	if err != nil {
		t.Fatal(err)
	}
	if tot := p.Totals(); len(tot) == 0 || tot[0].Ejected == 0 {
		t.Fatalf("tapped RunCached left the series empty (totals %+v) — served from cache?", tot)
	}
	if tot := p.Totals(); tot[0].Ejected != res.Domains[0].Ejected {
		t.Errorf("series ejections %d != result %d", tot[0].Ejected, res.Domains[0].Ejected)
	}
}

// TestFlowTrackerIgnoresWindow: a flow tracker tapping a run sees every
// delivered packet, warm-up and drain included — a latency bound has no
// warm-up exemption — while the result's aggregates stay windowed.
func TestFlowTrackerIgnoresWindow(t *testing.T) {
	o := determinismOptions(config.SB, 3)
	tr := &stats.FlowTracker{}
	var evs lifecycleTap
	o.Taps = []probe.Tap{tr, &evs}
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	var tracked int64
	for _, k := range tr.Keys() {
		tracked += tr.Flow(k).Ejected
	}
	all := int64(0)
	for _, e := range evs {
		if e.Kind == probe.KindEjected {
			all++
		}
	}
	if tracked != all {
		t.Errorf("tracker saw %d ejections, the event stream carried %d", tracked, all)
	}
	if tracked <= res.Total.Ejected {
		t.Errorf("tracker saw %d ejections, no more than the %d in the measurement window", tracked, res.Total.Ejected)
	}
}
