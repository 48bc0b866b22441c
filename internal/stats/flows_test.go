package stats

import (
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/packet"
)

func delivered(id uint64, src, dst geom.Coord, domain int, created, injected, ejected int64) *packet.Packet {
	p := packet.New(id, src, dst, domain, packet.Ctrl, created)
	p.InjectedAt = injected
	p.EjectedAt = ejected
	return p
}

func TestFlowTrackerFoldsMaxima(t *testing.T) {
	tr := NewFlowTracker()
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 3}
	tr.Observe(delivered(1, src, dst, 0, 0, 5, 35))   // net 30, total 35
	tr.Observe(delivered(2, src, dst, 0, 10, 12, 70)) // net 58, total 60
	tr.Observe(delivered(3, src, dst, 0, 50, 51, 91)) // net 40, total 41

	fs := tr.Flow(FlowKey{Src: src, Dst: dst, Domain: 0})
	if fs.Ejected != 3 {
		t.Errorf("Ejected = %d, want 3", fs.Ejected)
	}
	if fs.MaxNetworkLatency != 58 {
		t.Errorf("MaxNetworkLatency = %d, want 58", fs.MaxNetworkLatency)
	}
	if fs.MaxTotalLatency != 60 {
		t.Errorf("MaxTotalLatency = %d, want 60", fs.MaxTotalLatency)
	}
	if tr.Len() != 1 {
		t.Errorf("Len = %d, want 1", tr.Len())
	}
}

// Same endpoints in different domains are different flows — the
// analytical bounds are per-domain.
func TestFlowTrackerSeparatesDomains(t *testing.T) {
	tr := NewFlowTracker()
	src, dst := geom.Coord{X: 1, Y: 0}, geom.Coord{X: 0, Y: 1}
	tr.Observe(delivered(1, src, dst, 0, 0, 0, 10))
	tr.Observe(delivered(2, src, dst, 1, 0, 0, 99))
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
	if got := tr.Flow(FlowKey{Src: src, Dst: dst, Domain: 0}).MaxNetworkLatency; got != 10 {
		t.Errorf("domain 0 max = %d, want 10", got)
	}
	if got := tr.Flow(FlowKey{Src: src, Dst: dst, Domain: 1}).MaxNetworkLatency; got != 99 {
		t.Errorf("domain 1 max = %d, want 99", got)
	}
}

func TestFlowTrackerUnknownFlowIsZero(t *testing.T) {
	tr := NewFlowTracker()
	if fs := tr.Flow(FlowKey{Domain: 3}); fs != (FlowStats{}) {
		t.Errorf("unknown flow = %+v, want zero value", fs)
	}
}

func TestFlowTrackerKeysOrdered(t *testing.T) {
	tr := NewFlowTracker()
	mk := func(sx, sy, dx, dy, dom int) *packet.Packet {
		return delivered(0, geom.Coord{X: sx, Y: sy}, geom.Coord{X: dx, Y: dy}, dom, 0, 0, 1)
	}
	tr.Observe(mk(2, 2, 0, 0, 1))
	tr.Observe(mk(0, 1, 1, 0, 0))
	tr.Observe(mk(1, 0, 0, 1, 0))
	tr.Observe(mk(1, 0, 2, 0, 0))
	ks := tr.Keys()
	want := []FlowKey{
		{Src: geom.Coord{X: 1, Y: 0}, Dst: geom.Coord{X: 2, Y: 0}, Domain: 0},
		{Src: geom.Coord{X: 1, Y: 0}, Dst: geom.Coord{X: 0, Y: 1}, Domain: 0},
		{Src: geom.Coord{X: 0, Y: 1}, Dst: geom.Coord{X: 1, Y: 0}, Domain: 0},
		{Src: geom.Coord{X: 2, Y: 2}, Dst: geom.Coord{X: 0, Y: 0}, Domain: 1},
	}
	if len(ks) != len(want) {
		t.Fatalf("Keys() returned %d keys, want %d", len(ks), len(want))
	}
	for i := range want {
		if ks[i] != want[i] {
			t.Errorf("Keys()[%d] = %+v, want %+v", i, ks[i], want[i])
		}
	}
}

// The collector hook: a tracker installed on a collector sees every
// ejected packet, including ones outside the measurement window — a
// latency bound has no warm-up exemption.
func TestCollectorFlowHookIgnoresWindow(t *testing.T) {
	col := NewCollector(1, 100, 200)
	tr := NewFlowTracker()
	col.SetFlowTracker(tr)
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 1, Y: 1}

	col.Ejected(delivered(1, src, dst, 0, 0, 1, 50))      // before the window
	col.Ejected(delivered(2, src, dst, 0, 120, 121, 150)) // inside
	col.Ejected(delivered(3, src, dst, 0, 500, 501, 600)) // after

	fs := tr.Flow(FlowKey{Src: src, Dst: dst, Domain: 0})
	if fs.Ejected != 3 {
		t.Errorf("tracker saw %d packets, want all 3 regardless of window", fs.Ejected)
	}
	if col.Domain(0).Ejected != 1 {
		t.Errorf("collector window stats counted %d, want 1", col.Domain(0).Ejected)
	}
}
