package runahead

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/stats"
)

type harness struct {
	f   *Fabric
	col *stats.Collector
	cfg config.Config
	ids packet.IDSource
	got []*packet.Packet
	now int64
}

func newHarness(t *testing.T, width int) *harness {
	t.Helper()
	cfg := config.Default(config.RUNAHEAD)
	cfg.Width, cfg.Height = width, width
	h := &harness{cfg: cfg}
	h.col = stats.NewCollector(cfg.Domains, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	var err error
	h.f, err = New(cfg, func(node int, p *packet.Packet, now int64) {
		h.got = append(h.got, p)
	}, h.col, meter)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) pkt(src, dst geom.Coord) *packet.Packet {
	return packet.New(h.ids.Next(), src, dst, 0, packet.Ctrl, h.now)
}

func (h *harness) steps(n int) {
	for i := 0; i < n; i++ {
		h.f.Step(h.now)
		h.now++
	}
}

func TestNewValidation(t *testing.T) {
	cfg := config.Default(config.WH)
	col := stats.NewCollector(1, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	if _, err := New(cfg, nil, col, meter); err == nil {
		t.Error("buffered config accepted")
	}
	if _, err := New(config.Default(config.RUNAHEAD), nil, nil, meter); err == nil {
		t.Error("nil collector accepted")
	}
}

// The whole point: single-cycle hops.  A lone packet arrives in exactly
// Hops cycles — 3× faster than BLESS — with no drop and no
// retransmission at any mesh size: the acknowledgement timeout outlasts
// the longest X-Y path (corner to corner), so it never fires for a copy
// still in flight.
func TestSingleCycleHops(t *testing.T) {
	for _, c := range []struct {
		width    int
		src, dst geom.Coord
	}{
		{8, geom.Coord{X: 0, Y: 0}, geom.Coord{X: 5, Y: 3}},
		{8, geom.Coord{}, geom.Coord{X: 7, Y: 7}},
		{16, geom.Coord{}, geom.Coord{X: 15, Y: 15}},
		{17, geom.Coord{}, geom.Coord{X: 16, Y: 16}},
		{32, geom.Coord{}, geom.Coord{X: 31, Y: 31}},
	} {
		h := newHarness(t, c.width)
		p := h.pkt(c.src, c.dst)
		h.f.Inject(h.cfg.Mesh().ID(c.src), p, 0)
		h.steps(200)
		if want := int64(h.cfg.Mesh().Hops(c.src, c.dst)); p.EjectedAt != want {
			t.Errorf("%d×%d %v→%v: EjectedAt = %d, want %d (1 cycle per hop)", c.width, c.width, c.src, c.dst, p.EjectedAt, want)
		}
		if h.f.Drops() != 0 || h.f.Retransmissions() != 0 {
			t.Errorf("%d×%d %v→%v: lone packet dropped/retransmitted (%d/%d)",
				c.width, c.width, c.src, c.dst, h.f.Drops(), h.f.Retransmissions())
		}
	}
}

func TestInjectContracts(t *testing.T) {
	h := newHarness(t, 4)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("multi-flit accepted")
			}
		}()
		h.f.Inject(0, packet.New(1, geom.Coord{}, geom.Coord{X: 1, Y: 0}, 0, packet.Data, 0), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-addressed accepted")
			}
		}()
		h.f.Inject(0, packet.New(2, geom.Coord{}, geom.Coord{}, 0, packet.Ctrl, 0), 0)
	}()
}

// Contention drops and retransmission recovers: two packets crossing
// the same output in the same cycle lose one copy, yet both arrive.
func TestDropAndRetransmit(t *testing.T) {
	h := newHarness(t, 4)
	mesh := h.cfg.Mesh()
	// Both want the East port of (1,1) at the same cycle: (0,1)→(3,1)
	// arrives from West as (1,0)→? no — construct: a from (0,1) east,
	// b injected at (1,1) is lower priority; instead two through-flows:
	// a: (0,1)→(3,1) eastbound; b: (1,0)→(1,3)… crosses at (1,1) but
	// wants South — no clash.  Use b: (1,0)→(3,2): X-Y goes east at
	// (1,1)? No: X-first from (1,0) goes east immediately.  Take
	// b: (1,0)→(1,1)… that ejects.  Simplest: rely on load.
	injected := 0
	for cyc := 0; cyc < 120; cyc++ {
		for node := 0; node < mesh.Nodes(); node++ {
			src := mesh.CoordOf(node)
			dst := mesh.CoordOf((node*5 + cyc*3 + 1) % mesh.Nodes())
			if dst == src {
				continue
			}
			if h.f.Inject(node, h.pkt(src, dst), h.now) {
				injected++
			}
		}
		h.f.Step(h.now)
		h.now++
	}
	for i := 0; i < 30000 && h.f.InFlight() > 0; i++ {
		h.f.Step(h.now)
		h.now++
	}
	if h.f.InFlight() != 0 {
		t.Fatalf("%d packets never delivered", h.f.InFlight())
	}
	if len(h.got) != injected {
		t.Errorf("delivered %d of %d", len(h.got), injected)
	}
	if h.f.Drops() == 0 || h.f.Retransmissions() == 0 {
		t.Errorf("full-mesh load with no drops (%d) or retransmissions (%d) is implausible",
			h.f.Drops(), h.f.Retransmissions())
	}
	if err := h.col.CheckConservation(0); err != nil {
		t.Error(err)
	}
	if err := h.f.Audit(); err != nil {
		t.Error(err)
	}
}

// A retransmitted packet's latency includes the timeout: under a load
// that provably retransmits, the maximum delivered latency must be at
// least retryTimeout.
func TestRetransmitLatencyAccounting(t *testing.T) {
	h := newHarness(t, 4)
	mesh := h.cfg.Mesh()
	for cyc := 0; cyc < 120; cyc++ {
		for node := 0; node < mesh.Nodes(); node++ {
			src := mesh.CoordOf(node)
			dst := mesh.CoordOf((node*5 + cyc*3 + 1) % mesh.Nodes())
			if dst != src {
				h.f.Inject(node, h.pkt(src, dst), h.now)
			}
		}
		h.f.Step(h.now)
		h.now++
	}
	for i := 0; i < 30000 && h.f.InFlight() > 0; i++ {
		h.f.Step(h.now)
		h.now++
	}
	if h.f.Retransmissions() == 0 {
		t.Fatal("full-mesh load produced no retransmissions")
	}
	maxLat := int64(0)
	for _, p := range h.got {
		if l := p.TotalLatency(); l > maxLat {
			maxLat = l
		}
	}
	if maxLat < h.f.timeout {
		t.Errorf("max latency %d below the retry timeout %d despite %d retransmissions",
			maxLat, h.f.timeout, h.f.Retransmissions())
	}
}

func TestStepMonotonic(t *testing.T) {
	h := newHarness(t, 4)
	h.f.Step(0)
	defer func() {
		if recover() == nil {
			t.Error("repeated Step must panic")
		}
	}()
	h.f.Step(0)
}
