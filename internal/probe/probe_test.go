package probe_test

import (
	"strings"
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
)

// pkt builds a delivered packet with the given lifecycle stamps.
func pkt(id uint64, domain int, created, injected, ejected int64) *packet.Packet {
	p := packet.New(id, geom.Coord{X: 0, Y: 0}, geom.Coord{X: 1, Y: 1}, domain, packet.Ctrl, created)
	p.InjectedAt = injected
	p.EjectedAt = ejected
	return p
}

// created, injected and ejected report p's lifecycle at its stamped
// cycles, the way router.Kernel does; the tests' packets end at (1,1),
// node 3 of a 2×2 mesh.
func created(pr *probe.Probe, p *packet.Packet) {
	pr.Lifecycle(probe.KindCreated, p, p.CreatedAt, -1, 0, 0)
}

func injected(pr *probe.Probe, p *packet.Packet) {
	pr.Lifecycle(probe.KindInjected, p, p.InjectedAt, -1, 0, 0)
}

func ejected(pr *probe.Probe, p *packet.Packet) {
	pr.Lifecycle(probe.KindEjected, p, p.EjectedAt, 3, p.Hops, p.Deflections)
}

// series arms a ring for a run shaped cfg with one Series of the given
// width as its tap.  Read the series after pr.Flush, as sim.Run does at
// the end of a run.
func series(cfg probe.Config, every int64) (*probe.Probe, *probe.Series) {
	s := probe.NewSeries(every)
	pr := &probe.Probe{}
	pr.Arm(cfg, s)
	return pr, s
}

// mesh2x2 is the shape most tests arm: a 2×2 mesh, no window bounds.
func mesh2x2(domains int) probe.Config {
	return probe.Config{Mesh: geom.NewMesh(2, 2), Domains: domains}
}

// TestNilAndDisarmedSafe: every event method must be a no-op on a nil
// receiver and on a zero-value (disarmed) probe — the routers' hot
// paths rely on it.
func TestNilAndDisarmedSafe(t *testing.T) {
	p := pkt(1, 0, 10, 11, 20)
	for _, pr := range []*probe.Probe{nil, {}} {
		created(pr, p)
		pr.Refused(0, 5)
		injected(pr, p)
		ejected(pr, p)
		pr.Traverse(0, geom.East, p, 1, true, 12)
		pr.Tick(12, 3)
		pr.Flush()
	}
}

// TestTrailingIntervalTruncated: a run whose length is not a multiple
// of the width must report a final bucket ending one past the last
// observed cycle, not at the full bucket boundary.
func TestTrailingIntervalTruncated(t *testing.T) {
	pr, s := series(mesh2x2(1), 100)
	for now := int64(0); now < 250; now++ {
		pr.Tick(now, 0)
	}
	pr.Flush()
	ivs := s.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals, want 3", len(ivs))
	}
	for i, want := range []struct{ start, end int64 }{{0, 100}, {100, 200}, {200, 250}} {
		if ivs[i].Start != want.start || ivs[i].End != want.end {
			t.Errorf("interval %d = [%d,%d), want [%d,%d)", i, ivs[i].Start, ivs[i].End, want.start, want.end)
		}
	}
	// A run ending exactly on a bucket boundary keeps the full width.
	pr.Arm(mesh2x2(1), s)
	for now := int64(0); now < 200; now++ {
		pr.Tick(now, 0)
	}
	pr.Flush()
	ivs = s.Intervals()
	if len(ivs) != 2 || ivs[1].End != 200 {
		t.Fatalf("aligned run: got %d intervals, last End %d, want 2 ending at 200", len(ivs), ivs[len(ivs)-1].End)
	}
}

// TestWarmupBoundary: events of packets created one cycle before the
// window or at MeasureEnd are excluded; the boundary cycles WarmupEnd
// and MeasureEnd-1 are included.
func TestWarmupBoundary(t *testing.T) {
	pr, s := series(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, WarmupEnd: 100, MeasureEnd: 200}, 50)
	for i, c := range []struct {
		created int64
		counted bool
	}{
		{99, false},  // last warm-up cycle
		{100, true},  // first measured cycle
		{199, true},  // last measured cycle
		{200, false}, // first drain-era creation
	} {
		p := pkt(uint64(i), 0, c.created, c.created+1, c.created+10)
		created(pr, p)
		injected(pr, p)
		ejected(pr, p)
	}
	pr.Flush()
	tot := s.Totals()[0]
	if tot.Created != 2 || tot.Injected != 2 || tot.Ejected != 2 {
		t.Errorf("totals = %+v, want 2 created/injected/ejected", tot)
	}
	// Out-of-window packets still move occupancy: 4 created, 4 ejected.
	pr.Tick(210, 0)
	pr.Flush()
	ivs := s.Intervals()
	if got := ivs[len(ivs)-1].Domains[0].InFlight; got != 0 {
		t.Errorf("final occupancy = %d, want 0", got)
	}
}

// TestDrainEjectionBucketed: an in-window packet ejecting after
// MeasureEnd still lands in the series, bucketed at its ejection cycle.
func TestDrainEjectionBucketed(t *testing.T) {
	pr, s := series(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, WarmupEnd: 0, MeasureEnd: 200}, 100)
	p := pkt(1, 0, 150, 151, 260)
	created(pr, p)
	injected(pr, p)
	ejected(pr, p)
	pr.Flush()
	ivs := s.Intervals()
	if len(ivs) != 3 {
		t.Fatalf("got %d intervals, want 3 (ejection at 260)", len(ivs))
	}
	if got := ivs[2].Domains[0].Ejected; got != 1 {
		t.Errorf("drain bucket ejections = %d, want 1", got)
	}
	if got := ivs[2].Domains[0].LatencySum; got != 110 {
		t.Errorf("drain bucket latency sum = %d, want 110", got)
	}
}

// TestHeatmapAndExports covers the spatial counters and both exporters'
// shapes on a hand-driven run.
func TestHeatmapAndExports(t *testing.T) {
	mesh := geom.NewMesh(2, 2)
	pr, s := series(probe.Config{Mesh: mesh, Domains: 2, WarmupEnd: 0, MeasureEnd: 100}, 100)
	p := pkt(1, 1, 10, 11, 40)
	created(pr, p)
	injected(pr, p)
	pr.Traverse(0, geom.East, p, 1, false, 20)
	pr.Traverse(1, geom.South, p, 1, true, 30)
	ejected(pr, p)
	pr.Tick(40, 0)
	pr.Flush()

	h := s.Heatmap()
	if h.Cycles != 100 {
		t.Errorf("heatmap cycles = %d, want 100", h.Cycles)
	}
	if h.RouterFlits[0] != 1 || h.RouterFlits[1] != 1 {
		t.Errorf("router flits = %v", h.RouterFlits)
	}
	if h.RouterDeflections[1] != 1 || h.RouterDeflections[0] != 0 {
		t.Errorf("router deflections = %v", h.RouterDeflections)
	}
	if got := h.RouterEjections[mesh.ID(p.Dst)]; got != 1 {
		t.Errorf("ejection heatmap at destination = %d, want 1", got)
	}
	if got := h.Utilization(0, geom.East); got != 0.01 {
		t.Errorf("utilization = %v, want 0.01", got)
	}

	var ts strings.Builder
	if err := s.WriteTimeSeriesJSONL(&ts); err != nil {
		t.Fatal(err)
	}
	// One line per (interval, domain): 1 interval × 2 domains.
	if lines := strings.Count(ts.String(), "\n"); lines != 2 {
		t.Errorf("JSONL lines = %d, want 2\n%s", lines, ts.String())
	}
	if !strings.Contains(ts.String(), `"deflections":1`) {
		t.Errorf("JSONL missing deflection count:\n%s", ts.String())
	}

	var hm strings.Builder
	if err := s.WriteHeatmapCSV(&hm); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(hm.String()), "\n")
	if len(lines) != 1+mesh.Nodes() {
		t.Errorf("heatmap CSV rows = %d, want %d", len(lines), 1+mesh.Nodes())
	}
	if lines[0] != probe.HeatmapHeader {
		t.Errorf("heatmap header = %q", lines[0])
	}

	if sum := s.Summary(); !strings.Contains(sum, "domain 1") {
		t.Errorf("summary missing domain block:\n%s", sum)
	}
}

// TestExportBeforeArm: the heatmap exporter refuses to write garbage
// from an unarmed series.
func TestExportBeforeArm(t *testing.T) {
	if err := probe.NewSeries(0).WriteHeatmapCSV(&strings.Builder{}); err == nil {
		t.Fatal("expected error exporting before Arm")
	}
}

// TestRearmResets: arming a series again must discard all data from a
// previous run.
func TestRearmResets(t *testing.T) {
	pr, s := series(mesh2x2(1), 10)
	p := pkt(1, 0, 5, 6, 9)
	created(pr, p)
	ejected(pr, p)
	pr.Flush()
	pr.Arm(mesh2x2(1), s)
	if got := s.Intervals(); got != nil {
		t.Errorf("re-armed series kept %d intervals", len(got))
	}
	if tot := s.Totals()[0]; tot.Ejected != 0 {
		t.Errorf("re-armed series kept totals %+v", tot)
	}
}

// TestDefaultEvery: a series built with a width ≤ 0 buckets every
// DefaultEvery cycles.
func TestDefaultEvery(t *testing.T) {
	pr, s := series(mesh2x2(1), 0)
	for now := int64(0); now < probe.DefaultEvery+1; now++ {
		pr.Tick(now, 0)
	}
	pr.Flush()
	ivs := s.Intervals()
	if len(ivs) != 2 || ivs[0].End != probe.DefaultEvery {
		t.Errorf("intervals %+v, want two with the first ending at %d", ivs, probe.DefaultEvery)
	}
}
