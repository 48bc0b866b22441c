package stats

import (
	"testing"

	"surfbless/internal/geom"
	"surfbless/internal/probe"
)

var flowMesh = geom.NewMesh(4, 4)

// newTracker arms a zero-value tracker for a run on flowMesh, as a run
// arms its taps.
func newTracker() *FlowTracker {
	tr := &FlowTracker{}
	tr.Arm(probe.Config{Mesh: flowMesh, Domains: 2})
	return tr
}

// lifeEvent builds one lifecycle event of packet id as the kernel
// reports it to the probe.
func lifeEvent(kind probe.Kind, id uint64, src, dst geom.Coord, domain int, created, cycle int64) probe.Event {
	e := probe.Event{Cycle: cycle, Created: created, ID: id, Node: -1,
		Src: int32(flowMesh.ID(src)), Dst: int32(flowMesh.ID(dst)), Domain: int16(domain), Kind: kind}
	if kind == probe.KindEjected {
		e.Node = e.Dst
	}
	return e
}

// deliver feeds tr one packet's creation, injection and ejection
// events in one batch.
func deliver(tr *FlowTracker, id uint64, src, dst geom.Coord, domain int, created, injected, ejected int64) {
	tr.Consume([]probe.Event{
		lifeEvent(probe.KindCreated, id, src, dst, domain, created, created),
		lifeEvent(probe.KindInjected, id, src, dst, domain, created, injected),
		lifeEvent(probe.KindEjected, id, src, dst, domain, created, ejected),
	})
}

func TestFlowTrackerFoldsMaxima(t *testing.T) {
	tr := newTracker()
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 3}
	deliver(tr, 1, src, dst, 0, 0, 5, 35)   // net 30, total 35
	deliver(tr, 2, src, dst, 0, 10, 12, 70) // net 58, total 60
	deliver(tr, 3, src, dst, 0, 50, 51, 91) // net 40, total 41

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
	tr := newTracker()
	src, dst := geom.Coord{X: 1, Y: 0}, geom.Coord{X: 0, Y: 1}
	deliver(tr, 1, src, dst, 0, 0, 0, 10)
	deliver(tr, 2, src, dst, 1, 0, 0, 99)
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
	tr := newTracker()
	if fs := tr.Flow(FlowKey{Domain: 3}); fs != (FlowStats{}) {
		t.Errorf("unknown flow = %+v, want zero value", fs)
	}
}

func TestFlowTrackerKeysOrdered(t *testing.T) {
	tr := newTracker()
	mk := func(sx, sy, dx, dy, dom int) {
		deliver(tr, 0, geom.Coord{X: sx, Y: sy}, geom.Coord{X: dx, Y: dy}, dom, 0, 0, 1)
	}
	mk(2, 2, 0, 0, 1)
	mk(0, 1, 1, 0, 0)
	mk(1, 0, 0, 1, 0)
	mk(1, 0, 2, 0, 0)
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

// TestFlowTrackerSpansBatches: a packet injected in one drained batch
// and ejected in a later one keeps its first injection cycle across a
// retransmission, and the tracker forgets every packet that ejects or
// drops.
func TestFlowTrackerSpansBatches(t *testing.T) {
	tr := newTracker()
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 2, Y: 1}
	tr.Consume([]probe.Event{
		lifeEvent(probe.KindInjected, 1, src, dst, 0, 3, 4),
		lifeEvent(probe.KindInjected, 2, src, dst, 0, 3, 6),
	})
	tr.Consume([]probe.Event{
		lifeEvent(probe.KindRetransmit, 1, src, dst, 0, 3, 20),
		lifeEvent(probe.KindDropped, 2, src, dst, 0, 3, 21),
	})
	if len(tr.injected) != 1 {
		t.Errorf("%d packets remembered after a drop, want 1", len(tr.injected))
	}
	tr.Consume([]probe.Event{lifeEvent(probe.KindEjected, 1, src, dst, 0, 3, 40)})
	fs := tr.Flow(FlowKey{Src: src, Dst: dst})
	if fs.Ejected != 1 || fs.MaxNetworkLatency != 36 || fs.MaxTotalLatency != 37 {
		t.Errorf("flow = %+v, want 1 ejected, network 36 (from the first injection), total 37", fs)
	}
	if len(tr.injected) != 0 {
		t.Errorf("%d packets remembered after every packet resolved, want 0", len(tr.injected))
	}
}
