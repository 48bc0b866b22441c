package router

import (
	"slices"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/stats"
)

// newPlane builds a bare plane on a width×height mesh with lines of hop
// cycles' delay and an arbitration that does nothing.
func newPlane(t *testing.T, width, height, hop int) *Plane {
	t.Helper()
	cfg := config.Default(config.BLESS)
	cfg.Width, cfg.Height = width, height
	meter := power.NewMeter(cfg, power.Default45nm())
	p := &Plane{}
	if err := p.Init(cfg, hop, hop, nil, stats.NewCollector(cfg.Domains, 0, 0), meter, nil, func(int) {}); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestPlaneWiring checks a rectangular mesh's lines: none on a border's
// missing side, and each out line is its neighbour's opposite in line,
// with the hop delay.
func TestPlaneWiring(t *testing.T) {
	const w, h, hop = 4, 3, 3
	p := newPlane(t, w, h, hop)
	if len(p.Nodes) != w*h {
		t.Fatalf("%d nodes, want %d", len(p.Nodes), w*h)
	}
	lines := 0
	for id, n := range p.Nodes {
		if n.C != p.Mesh.CoordOf(id) || n.NI != p.NIs[id] {
			t.Errorf("node %d: coord %v, NI %p; want %v, %p", id, n.C, n.NI, p.Mesh.CoordOf(id), p.NIs[id])
		}
		for _, d := range geom.LinkDirs {
			has := p.Mesh.HasNeighbor(n.C, d)
			if (n.Out[d] != nil) != has || (n.In[d] != nil) != has {
				t.Errorf("%v/%v: out %v, in %v, neighbour %v", n.C, d, n.Out[d] != nil, n.In[d] != nil, has)
				continue
			}
			if !has {
				continue
			}
			lines++
			nb := p.Nodes[p.Mesh.ID(n.C.Add(d))]
			if n.Out[d] != nb.In[d.Opposite()] {
				t.Errorf("%v/%v: out line is not %v's %v in line", n.C, d, nb.C, d.Opposite())
			}
			if got := n.Out[d].Delay(); got != hop {
				t.Errorf("%v/%v: delay %d, want %d", n.C, d, got, hop)
			}
		}
	}
	if want := 2*(w-1)*h + 2*w*(h-1); lines != want {
		t.Errorf("%d lines, want %d", lines, want)
	}
}

// TestPlaneReceiveOrder checks that receive yields a router's arrivals
// in input-port order N, E, S, W whatever order they were sent in, each
// with the port it came in on, and that an idle cycle receives nothing:
// it visits no router, so every node keeps its last arrivals.
func TestPlaneReceiveOrder(t *testing.T) {
	p := newPlane(t, 3, 3, 1)
	mid := geom.Coord{X: 1, Y: 1}
	n := p.Nodes[p.Mesh.ID(mid)]
	// send forwards q to mid from its neighbour on side d, which wakes
	// mid for the arrival.
	send := func(q *packet.Packet, d geom.Dir, now int64) {
		id := p.Mesh.ID(mid.Add(d))
		if !p.Send(&p.FX[0], id, p.Nodes[id], q, d.Opposite(), now) {
			t.Fatal("fault-free send lost the packet")
		}
	}
	visited := func(want ...int) {
		t.Helper()
		if got := p.Active(0); !slices.Equal(got, want) {
			t.Errorf("cycle %d visited %v, want %v", p.Now, got, want)
		}
	}
	var sent [geom.NumLinkDirs]*packet.Packet
	for i, d := range []geom.Dir{geom.West, geom.South, geom.East, geom.North} {
		sent[d] = packet.New(uint64(i), mid.Add(d), mid, 0, packet.Ctrl, 0)
		send(sent[d], d, 0)
	}
	p.Step(1)
	visited(p.Mesh.ID(mid))
	if len(n.Arrivals) != geom.NumLinkDirs {
		t.Fatalf("%d arrivals, want %d", len(n.Arrivals), geom.NumLinkDirs)
	}
	for i, d := range geom.LinkDirs {
		if n.Arrivals[i] != sent[d] || n.From[i] != d {
			t.Errorf("arrival %d is packet %d from %v, want %d from %v", i, n.Arrivals[i].ID, n.From[i], sent[d].ID, d)
		}
	}

	send(sent[geom.West], geom.West, 1)
	send(sent[geom.East], geom.East, 1)
	p.Step(2)
	visited(p.Mesh.ID(mid))
	if len(n.Arrivals) != 2 || n.Arrivals[0] != sent[geom.East] || n.Arrivals[1] != sent[geom.West] ||
		n.From[0] != geom.East || n.From[1] != geom.West {
		t.Errorf("arrivals %v from %v, want the east then the west packet", n.Arrivals, n.From[:len(n.Arrivals)])
	}

	p.Step(3)
	visited()
}

// TestKernelWakeAcrossGap checks that a wake for a cycle no Step ran
// falls due at the next Step, also when the gap exceeds the calendar's
// ring, and that a visit consumes it.
func TestKernelWakeAcrossGap(t *testing.T) {
	for _, gap := range []int64{1, 5, 100} {
		p := newPlane(t, 4, 4, 2)
		p.Step(0)
		const node = 5
		if !p.Offer(node, packet.New(1, p.Mesh.CoordOf(node), geom.Coord{X: 3, Y: 3}, 0, packet.Ctrl, 0), 1) {
			t.Fatal("offer refused")
		}
		p.Step(1 + gap)
		if got := p.Active(0); !slices.Equal(got, []int{node}) {
			t.Errorf("gap %d: Step(%d) visited %v, want [%d]", gap, p.Now, got, node)
		}
		p.Step(p.Now + 1)
		if got := p.Active(0); len(got) != 0 {
			t.Errorf("gap %d: the wake was not consumed; Step(%d) visited %v", gap, p.Now, got)
		}
	}
}

// TestPlaneSendAndAudit checks that Send moves a packet onto its line
// with its hop and deflection counts, that Audit balances NI queues
// plus lines against the packets in flight, and that it reports a
// packet queued behind the kernel's back.
func TestPlaneSendAndAudit(t *testing.T) {
	p := newPlane(t, 3, 2, 2)
	src, dst := geom.Coord{X: 1, Y: 0}, geom.Coord{X: 2, Y: 0}
	q := packet.New(1, src, dst, 0, packet.Ctrl, 0)
	if !p.Offer(p.Mesh.ID(src), q, 0) {
		t.Fatal("offer refused")
	}
	if err := p.Audit(); err != nil {
		t.Fatalf("queued packet: %v", err)
	}
	id := p.Mesh.ID(src)
	n := p.Nodes[id]
	n.NI.Pop(0)
	if !p.Send(&p.FX[0], id, n, q, geom.West, 0) {
		t.Fatal("fault-free send lost the packet")
	}
	if q.Hops != 1 || q.Deflections != 1 {
		t.Errorf("hops %d, deflections %d after one unproductive hop; want 1, 1", q.Hops, q.Deflections)
	}
	if got := p.Traveling(); got != 1 {
		t.Errorf("Traveling() = %d, want 1", got)
	}
	if err := p.Audit(); err != nil {
		t.Fatalf("packet on a line: %v", err)
	}

	p.NIs[0].Offer(packet.New(2, geom.Coord{}, dst, 0, packet.Ctrl, 0)) // never counted in flight
	if err := p.Audit(); err == nil {
		t.Error("Audit missed a packet queued behind the kernel's back")
	}
}
