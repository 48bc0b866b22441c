package wormhole

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/stats"
)

type harness struct {
	e   *Engine
	col *stats.Collector
	cfg config.Config
	ids packet.IDSource
	got []*packet.Packet
	now int64
}

func newHarness(t *testing.T, cfg config.Config, opt Options) *harness {
	t.Helper()
	h := &harness{cfg: cfg}
	h.col = stats.NewCollector(cfg.Domains, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	opt.Cfg = cfg
	var err error
	h.e, err = New(opt, func(node int, p *packet.Packet, now int64) {
		h.got = append(h.got, p)
	}, h.col, meter)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func whHarness(t *testing.T) *harness {
	cfg := config.Default(config.WH)
	return newHarness(t, cfg, Options{VCs: SharedVCs(cfg), Key: KeyNone})
}

func (h *harness) pkt(src, dst geom.Coord, class packet.Class) *packet.Packet {
	p := packet.New(h.ids.Next(), src, dst, 0, class, h.now)
	return p
}

func (h *harness) steps(n int) {
	for i := 0; i < n; i++ {
		h.e.Step(h.now)
		h.now++
	}
}

func TestNewValidation(t *testing.T) {
	cfg := config.Default(config.WH)
	col := stats.NewCollector(1, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	if _, err := New(Options{Cfg: config.Default(config.BLESS), VCs: SharedVCs(cfg)}, nil, col, meter); err == nil {
		t.Error("BLESS config accepted")
	}
	if _, err := New(Options{Cfg: cfg}, nil, col, meter); err == nil {
		t.Error("empty VC list accepted")
	}
	if _, err := New(Options{Cfg: cfg, VCs: []VCSpec{{Depth: 0}}}, nil, col, meter); err == nil {
		t.Error("zero-depth VC accepted")
	}
	if _, err := New(Options{Cfg: cfg, VCs: SharedVCs(cfg)}, nil, nil, meter); err == nil {
		t.Error("nil collector accepted")
	}
}

func TestVCLayouts(t *testing.T) {
	cfg := config.Default(config.WH)
	shared := SharedVCs(cfg)
	if len(shared) != 3 {
		t.Fatalf("SharedVCs: %d VCs, want 3 (1 ctrl + 2 data)", len(shared))
	}
	for _, s := range shared {
		if s.Group != -1 {
			t.Error("SharedVCs must be open to any packet")
		}
	}
	if shared[0].Depth != 1 || shared[1].Depth != 5 || shared[2].Depth != 5 {
		t.Errorf("SharedVCs depths = %v", shared)
	}

	vnet := VNetVCs(cfg)
	if vnet[0].Group != 0 || vnet[1].Group != 1 || vnet[2].Group != 2 {
		t.Errorf("VNetVCs groups = %v", vnet)
	}

	sc := config.Default(config.Surf)
	sc.Domains = 4
	dom := DomainVCs(sc)
	if len(dom) != 4*3 {
		t.Fatalf("DomainVCs: %d VCs, want 12", len(dom))
	}
	if dom[0].Group != 0 || dom[3].Group != 1 || dom[11].Group != 3 {
		t.Errorf("DomainVCs groups = %v", dom)
	}
}

// A lone 1-flit packet traverses hops×P cycles (P = 5 for VC routers).
func TestSinglePacketTiming(t *testing.T) {
	h := whHarness(t)
	mesh := h.cfg.Mesh()
	src, dst := geom.Coord{X: 1, Y: 1}, geom.Coord{X: 4, Y: 3}
	p := h.pkt(src, dst, packet.Ctrl)
	h.e.Inject(mesh.ID(src), p, 0)
	h.steps(60)
	if p.EjectedAt < 0 {
		t.Fatal("packet not delivered")
	}
	if p.InjectedAt != 0 {
		t.Errorf("InjectedAt = %d, want 0", p.InjectedAt)
	}
	want := int64(mesh.Hops(src, dst) * h.cfg.HopDelay())
	if p.EjectedAt != want {
		t.Errorf("EjectedAt = %d, want %d (5 hops × P=5)", p.EjectedAt, want)
	}
}

// A 5-flit worm's tail trails its head by 4 cycles: ejection happens at
// hops×P + (size−1).
func TestWormSerialization(t *testing.T) {
	h := whHarness(t)
	mesh := h.cfg.Mesh()
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 2, Y: 0}
	p := h.pkt(src, dst, packet.Data)
	h.e.Inject(mesh.ID(src), p, 0)
	h.steps(60)
	if p.EjectedAt < 0 {
		t.Fatal("worm not delivered")
	}
	want := int64(2*h.cfg.HopDelay() + p.Size - 1)
	if p.EjectedAt != want {
		t.Errorf("EjectedAt = %d, want %d", p.EjectedAt, want)
	}
}

// Self-addressed packets (src == dst) are delivered through the local
// port without entering the mesh.
func TestSelfDelivery(t *testing.T) {
	h := whHarness(t)
	p := h.pkt(geom.Coord{X: 2, Y: 2}, geom.Coord{X: 2, Y: 2}, packet.Data)
	h.e.Inject(h.cfg.Mesh().ID(p.Src), p, 0)
	h.steps(20)
	if p.EjectedAt < 0 {
		t.Fatal("self-addressed packet not delivered")
	}
	if err := h.e.Audit(); err != nil {
		t.Error(err)
	}
}

// KeyVNet mode separates virtual networks: packets must carry a vnet.
func TestVNetModeRequiresVNet(t *testing.T) {
	cfg := config.Default(config.WH)
	h := newHarness(t, cfg, Options{VCs: VNetVCs(cfg), Key: KeyVNet})
	defer func() {
		if recover() == nil {
			t.Error("packet without vnet accepted in KeyVNet mode")
		}
	}()
	h.e.Inject(0, h.pkt(geom.Coord{}, geom.Coord{X: 1, Y: 0}, packet.Ctrl), 0)
}

func TestVNetSeparationDelivers(t *testing.T) {
	cfg := config.Default(config.WH)
	h := newHarness(t, cfg, Options{VCs: VNetVCs(cfg), Key: KeyVNet})
	mesh := cfg.Mesh()
	var ps []*packet.Packet
	for vn := 0; vn < 3; vn++ {
		class := packet.Data
		if vn == 0 {
			class = packet.Ctrl
		}
		p := h.pkt(geom.Coord{X: 0, Y: vn}, geom.Coord{X: 5, Y: vn}, class)
		p.VNet = vn
		ps = append(ps, p)
		h.e.Inject(mesh.ID(p.Src), p, 0)
	}
	h.steps(100)
	for _, p := range ps {
		if p.EjectedAt < 0 {
			t.Errorf("vnet %d packet not delivered", p.VNet)
		}
	}
}

// Head-of-line: a full VC stalls followers, credits meter the flow, and
// everything still drains — the flow-control correctness test.
func TestCreditFlowUnderBurst(t *testing.T) {
	h := whHarness(t)
	mesh := h.cfg.Mesh()
	// 20 data worms from one source through one column.
	var ps []*packet.Packet
	for i := 0; i < 20; i++ {
		p := h.pkt(geom.Coord{X: 0, Y: 3}, geom.Coord{X: 7, Y: 3}, packet.Data)
		ps = append(ps, p)
		h.e.Inject(mesh.ID(p.Src), p, 0)
	}
	h.steps(1200)
	for i, p := range ps {
		if p.EjectedAt < 0 {
			t.Fatalf("worm %d never delivered", i)
		}
	}
	// Worms share one path: ejections are strictly ordered.
	for i := 1; i < len(ps); i++ {
		if ps[i].EjectedAt <= ps[i-1].EjectedAt {
			t.Errorf("worm %d ejected at %d, not after worm %d (%d)",
				i, ps[i].EjectedAt, i-1, ps[i-1].EjectedAt)
		}
	}
	if err := h.e.Audit(); err != nil {
		t.Error(err)
	}
}

// Saturation stress: everything offered is eventually delivered, flit
// conservation holds throughout.
func TestStressConservation(t *testing.T) {
	h := whHarness(t)
	mesh := h.cfg.Mesh()
	injected := 0
	for cyc := 0; cyc < 300; cyc++ {
		for node := 0; node < mesh.Nodes(); node += 2 {
			src := mesh.CoordOf(node)
			dst := mesh.CoordOf((node*13 + cyc*7 + 5) % mesh.Nodes())
			class := packet.Ctrl
			if (node+cyc)%3 == 0 {
				class = packet.Data
			}
			if h.e.Inject(node, h.pkt(src, dst, class), h.now) {
				injected++
			}
		}
		h.e.Step(h.now)
		h.now++
		if cyc%50 == 0 {
			if err := h.e.Audit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < 30000 && h.e.InFlight() > 0; i++ {
		h.e.Step(h.now)
		h.now++
	}
	if h.e.InFlight() != 0 {
		t.Fatalf("%d packets never delivered", h.e.InFlight())
	}
	if len(h.got) != injected {
		t.Errorf("delivered %d of %d", len(h.got), injected)
	}
	if err := h.e.Audit(); err != nil {
		t.Error(err)
	}
	if err := h.col.CheckConservation(0); err != nil {
		t.Error(err)
	}
}

func TestBackpressure(t *testing.T) {
	h := whHarness(t)
	accepted := 0
	for i := 0; i < h.cfg.InjectionQueueCap+4; i++ {
		if h.e.Inject(0, h.pkt(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 7, Y: 7}, packet.Ctrl), 0) {
			accepted++
		}
	}
	if accepted != h.cfg.InjectionQueueCap {
		t.Errorf("accepted %d, want %d", accepted, h.cfg.InjectionQueueCap)
	}
}

func TestStepMonotonic(t *testing.T) {
	h := whHarness(t)
	h.e.Step(0)
	defer func() {
		if recover() == nil {
			t.Error("repeated Step must panic")
		}
	}()
	h.e.Step(0)
}
