package probe_test

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"surfbless/internal/geom"
	"surfbless/internal/probe"
)

// TestEventStaysSmall pins the ring record at 48 bytes: the hot path
// copies one per event, so accidental growth is a performance bug.
func TestEventStaysSmall(t *testing.T) {
	if s := unsafe.Sizeof(probe.Event{}); s != 48 {
		t.Fatalf("Event is %d bytes, want 48", s)
	}
}

// TestRingOverflowFlushes: appending more router events than one ring
// segment holds must flush mid-interval and lose nothing — exactness
// never depends on segment capacity.
func TestRingOverflowFlushes(t *testing.T) {
	// A 1×1 mesh gets the largest router segment; overflow it many
	// times over from a single node without a drain.
	pr, s := series(probe.Config{Mesh: geom.NewMesh(1, 1), Domains: 1}, 100)
	const hops = 5000
	p := pkt(1, 0, 0, 0, 0)
	for i := 0; i < hops; i++ {
		pr.Traverse(0, geom.East, p, 2, i%10 == 0, int64(i%50))
	}
	pr.Flush()
	h := s.Heatmap()
	if h.RouterFlits[0] != 2*hops {
		t.Errorf("router flits = %d, want %d", h.RouterFlits[0], 2*hops)
	}
	if h.LinkFlits[0][geom.East] != 2*hops {
		t.Errorf("link flits = %d, want %d", h.LinkFlits[0][geom.East], 2*hops)
	}
	if h.RouterDeflections[0] != hops/10 {
		t.Errorf("deflections = %d, want %d", h.RouterDeflections[0], hops/10)
	}
}

// batchTap records the Config it is armed with and every batch it is
// handed (copying, per the Tap contract).
type batchTap struct {
	cfg     probe.Config
	arms    int
	batches int
	sizes   []int // length of each router-segment batch
	events  []probe.Event
}

func (bt *batchTap) Arm(cfg probe.Config) {
	bt.cfg = cfg
	bt.arms++
}

func (bt *batchTap) Consume(batch []probe.Event) {
	bt.batches++
	if k := batch[0].Kind; k == probe.KindLinkBusy || k == probe.KindDeflect {
		bt.sizes = append(bt.sizes, len(batch))
	}
	bt.events = append(bt.events, batch...)
}

// TestTapSeesEveryEvent: a tap is armed with the run's Config, then
// receives the full event stream across drains and the final flush,
// and re-arming the ring without it detaches it.
func TestTapSeesEveryEvent(t *testing.T) {
	cfg := probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1, WarmupEnd: 5, MeasureEnd: 90}
	pr := &probe.Probe{}
	bt := &batchTap{}
	pr.Arm(cfg, bt)
	if bt.arms != 1 || bt.cfg != cfg {
		t.Fatalf("tap armed %d times with %+v, want once with %+v", bt.arms, bt.cfg, cfg)
	}

	p := pkt(7, 0, 10, 11, 90)
	created(pr, p)
	injected(pr, p)
	for now := int64(0); now < 120; now++ {
		if now == 40 {
			pr.Traverse(1, geom.South, p, 1, false, now)
		}
		pr.Tick(now, 1)
	}
	ejected(pr, p)
	pr.Flush()

	// created + injected + traverse + ejected + 120 ticks.
	if want := 4 + 120; len(bt.events) != want {
		t.Fatalf("tap saw %d events, want %d", len(bt.events), want)
	}
	if bt.batches < 2 {
		t.Errorf("tap saw %d batches; periodic draining should produce several", bt.batches)
	}
	kinds := map[probe.Kind]int{}
	for _, e := range bt.events {
		kinds[e.Kind]++
	}
	for _, k := range []probe.Kind{probe.KindCreated, probe.KindInjected, probe.KindLinkBusy, probe.KindEjected} {
		if kinds[k] != 1 {
			t.Errorf("tap saw %d %v events, want 1", kinds[k], k)
		}
	}

	pr.Arm(cfg)
	pr.Tick(0, 0)
	pr.Flush()
	if len(bt.events) != 4+120 || bt.arms != 1 {
		t.Errorf("re-arm did not detach the tap (saw %d events, %d arms)", len(bt.events), bt.arms)
	}
}

// TestRouterSegmentHoldsADrain: a router appends at most one traversal
// per out-link per cycle, and its segment holds all of them between
// two drains — the first drain covers cycles 0–32, each later one 32
// cycles — so a tap gets each router's events in exactly one batch per
// drain, never split by an early flush.
func TestRouterSegmentHoldsADrain(t *testing.T) {
	for _, side := range []int{2, 8} {
		pr := &probe.Probe{}
		bt := &batchTap{}
		pr.Arm(probe.Config{Mesh: geom.NewMesh(side, side), Domains: 1}, bt)
		p := pkt(1, 0, 0, 0, 0)
		for now := int64(0); now < 200; now++ {
			for _, d := range geom.LinkDirs {
				pr.Traverse(0, d, p, 1, false, now)
			}
			pr.Tick(now, 0)
		}
		pr.Flush()
		want := []int{132, 128, 128, 128, 128, 128, 28}
		if !slices.Equal(bt.sizes, want) {
			t.Errorf("%dx%d: router batches of %v events, want %v", side, side, bt.sizes, want)
		}
	}
}

// TestDroppedAndRetransmitCounters: the new fault-path events land in
// the series (windowed like package stats) and drops end occupancy.
func TestDroppedAndRetransmitCounters(t *testing.T) {
	pr, s := series(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 2, WarmupEnd: 50}, 100)
	in := pkt(1, 0, 60, 61, 0)  // in-window
	out := pkt(2, 1, 10, 11, 0) // created pre-warm-up
	created(pr, in)
	created(pr, out)
	pr.Lifecycle(probe.KindRetransmit, in, 120, -1, 0, 0)
	pr.Lifecycle(probe.KindRetransmit, out, 130, -1, 0, 0) // windowed by now, which IS in window
	pr.Lifecycle(probe.KindDropped, in, 150, -1, 0, 0)
	pr.Lifecycle(probe.KindDropped, out, 160, -1, 0, 0)
	pr.Tick(200, 0)
	pr.Flush()

	tot := s.Totals()
	if tot[0].Dropped != 1 || tot[0].Retransmits != 1 {
		t.Errorf("domain 0: dropped=%d retransmits=%d, want 1/1", tot[0].Dropped, tot[0].Retransmits)
	}
	// Domain 1's packet was created before warm-up: its drop is
	// unwindowed, but the retransmission event (keyed by cycle, like
	// stats.Collector.Retransmitted) counts.
	if tot[1].Dropped != 0 || tot[1].Retransmits != 1 {
		t.Errorf("domain 1: dropped=%d retransmits=%d, want 0/1", tot[1].Dropped, tot[1].Retransmits)
	}
	// Both drops end occupancy regardless of window.
	ivs := s.Intervals()
	last := ivs[len(ivs)-1]
	for d, s := range last.Domains {
		if s.InFlight != 0 {
			t.Errorf("domain %d in-flight = %d after drops, want 0", d, s.InFlight)
		}
	}
}

// TestFlightRecorderWindow: the recorder retains only the trailing
// window, snapshots deterministically, and arming it for the next run
// empties it.
func TestFlightRecorderWindow(t *testing.T) {
	pr := &probe.Probe{}
	rec := probe.NewFlightRecorder(32)
	pr.Arm(mesh2x2(1), rec)
	for now := int64(0); now < 100; now++ {
		pr.Tick(now, int(now))
	}
	pr.Flush()

	snap := rec.Snapshot()
	if len(snap) != 32 {
		t.Fatalf("snapshot holds %d events, want the 32-cycle window", len(snap))
	}
	if snap[0].Cycle != 68 || snap[len(snap)-1].Cycle != 99 {
		t.Errorf("window covers [%d,%d], want [68,99]", snap[0].Cycle, snap[len(snap)-1].Cycle)
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Cycle < snap[i-1].Cycle {
			t.Fatalf("snapshot not cycle-ordered at %d", i)
		}
	}
	snap2 := rec.Snapshot()
	for i := range snap {
		if snap[i] != snap2[i] {
			t.Fatalf("snapshot not deterministic at %d", i)
		}
	}

	pr.Arm(mesh2x2(1), rec)
	if got := rec.Snapshot(); got != nil {
		t.Errorf("re-armed recorder's snapshot holds %d events", len(got))
	}
}

// TestMetricsExposition: registration is idempotent, func metrics
// rebind, and the text format carries HELP/TYPE lines.
func TestMetricsExposition(t *testing.T) {
	m := probe.NewMetrics()
	c := m.Counter("surfbless_x_total", "things")
	c.Add(3)
	c2 := m.Counter("surfbless_x_total", "things")
	c2.Inc()
	if c.Value() != 4 {
		t.Errorf("re-registered counter diverged: %d", c.Value())
	}
	v := int64(1)
	m.GaugeFunc("surfbless_y", "level", func() int64 { return v })
	m.GaugeFunc("surfbless_y", "level", func() int64 { return v * 10 })

	var b strings.Builder
	m.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP surfbless_x_total things",
		"# TYPE surfbless_x_total counter",
		"surfbless_x_total 4",
		"# TYPE surfbless_y gauge",
		"surfbless_y 10",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("invalid metric name accepted")
		}
	}()
	m.Counter("bad name", "")
}

func TestKindString(t *testing.T) {
	for k, want := range map[probe.Kind]string{
		probe.KindCreated: "created", probe.KindRefused: "refused", probe.KindInjected: "injected",
		probe.KindEjected: "ejected", probe.KindDropped: "dropped", probe.KindRetransmit: "retransmit",
	} {
		if k.String() != want {
			t.Errorf("%d names %q, want %q", k, k.String(), want)
		}
	}
	if probe.Kind(99).String() != "Kind(99)" {
		t.Error("unknown kind name wrong")
	}
}

// TestLifecycleCarriesCounts: a lifecycle event records the hop and
// deflection counts it is handed, not the packet's, and saturates them
// at the fields' 16-bit range.
func TestLifecycleCarriesCounts(t *testing.T) {
	pr := &probe.Probe{}
	bt := &batchTap{}
	pr.Arm(mesh2x2(1), bt)
	p := pkt(5, 0, 1, 2, 90)
	p.Hops, p.Deflections = 40, 30
	pr.Lifecycle(probe.KindInjected, p, 2, -1, 0, 0)
	pr.Lifecycle(probe.KindEjected, p, 90, 3, 70000, 12)
	pr.Flush()
	if len(bt.events) != 2 {
		t.Fatalf("tap saw %d events, want 2", len(bt.events))
	}
	if e := bt.events[0]; e.Hops != 0 || e.Deflections != 0 {
		t.Errorf("injection counts %d/%d, want the 0/0 handed in", e.Hops, e.Deflections)
	}
	if e := bt.events[1]; e.Hops != 65535 || e.Deflections != 12 || e.Node != 3 || e.Src != 0 || e.Dst != 3 {
		t.Errorf("ejection = %+v, want hops saturated at 65535, 12 deflections, node 3, route 0→3", e)
	}
}
