package surfbless

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/stats"
	"surfbless/internal/wave"
)

type harness struct {
	f   *Fabric
	col *stats.Collector
	cfg config.Config
	ids packet.IDSource
	got []*packet.Packet
	now int64
}

func newHarness(t *testing.T, cfg config.Config, slots []int) *harness {
	t.Helper()
	h := &harness{cfg: cfg}
	h.col = stats.NewCollector(cfg.Domains, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	var err error
	h.f, err = New(cfg, slots, func(node int, p *packet.Packet, now int64) {
		h.got = append(h.got, p)
	}, h.col, meter)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *harness) pkt(src, dst geom.Coord, domain int, class packet.Class) *packet.Packet {
	p := packet.New(h.ids.Next(), src, dst, domain, class, h.now)
	return p
}

func (h *harness) steps(n int) {
	for i := 0; i < n; i++ {
		h.f.Step(h.now)
		h.now++
	}
}

func defCfg(domains int) config.Config {
	cfg := config.Default(config.SB)
	cfg.Domains = domains
	return cfg
}

func TestNewValidation(t *testing.T) {
	col := stats.NewCollector(1, 0, 0)
	meter := power.NewMeter(defCfg(1), power.Default45nm())
	if _, err := New(config.Default(config.BLESS), nil, nil, col, meter); err == nil {
		t.Error("BLESS config accepted")
	}
	if _, err := New(defCfg(1), nil, nil, nil, meter); err == nil {
		t.Error("nil collector accepted")
	}
	if _, err := New(defCfg(1), []int{1, 1}, nil, col, meter); err == nil {
		t.Error("slot-width count mismatch accepted")
	}
	if _, err := New(defCfg(1), []int{0}, nil, col, meter); err == nil {
		t.Error("zero slot width accepted")
	}
	// Round-robin waves have runs of length 1 for D=2: a 5-wide window
	// cannot exist, so the constructor must refuse slot width 5.
	if _, err := New(defCfg(2), []int{5, 5}, nil, col, meter); err == nil {
		t.Error("unsatisfiable slot width accepted")
	}
}

// The fabric runs the wave plan of its configuration: the round-robin
// decoder over its domains, the 8×8 schedule at P = 3, slot width 1.
func TestPlanFollowsConfig(t *testing.T) {
	h := newHarness(t, defCfg(3), nil)
	if h.f.plan.Dec.Domains() != 3 {
		t.Errorf("plan decodes %d domains, want 3", h.f.plan.Dec.Domains())
	}
	if h.f.plan.Sched.Smax() != 42 {
		t.Errorf("plan schedule Smax %d, want 42", h.f.plan.Sched.Smax())
	}
	if len(h.f.plan.Slot) != 3 || h.f.plan.Slot[0] != 1 {
		t.Errorf("plan slot widths %v, want [1 1 1]", h.f.plan.Slot)
	}
}

// Injection waits for the packet's domain to own the SE wave: with two
// domains, a packet is injected on the first cycle whose SE wave index
// at its source decodes to its domain.
func TestInjectionWaitsForOwnWave(t *testing.T) {
	h := newHarness(t, defCfg(2), nil)
	mesh := h.cfg.Mesh()
	sched := h.f.plan.Sched
	src, dst := geom.Coord{X: 2, Y: 2}, geom.Coord{X: 5, Y: 2}

	p := h.pkt(src, dst, 0, packet.Ctrl)
	h.f.Inject(mesh.ID(src), p, 0)
	h.steps(50)
	if p.EjectedAt < 0 {
		t.Fatal("packet not delivered")
	}
	// The first cycle whose SE wave at src belongs to domain 0.
	wantInject := int64(-1)
	for tm := int64(0); tm < 42; tm++ {
		if h.f.plan.Dec.Domain(sched.Index(wave.SE, src, tm)) == 0 {
			wantInject = tm
			break
		}
	}
	if p.InjectedAt != wantInject {
		t.Errorf("InjectedAt = %d, want %d (first own SE wave)", p.InjectedAt, wantInject)
	}
	// After injection the packet surfs: no deflections, minimal hops.
	if p.Deflections != 0 || p.Hops != 3 {
		t.Errorf("Hops=%d Deflections=%d, want 3/0", p.Hops, p.Deflections)
	}
	if p.NetworkLatency() != int64(3*h.cfg.HopDelay()) {
		t.Errorf("network latency %d, want %d", p.NetworkLatency(), 3*h.cfg.HopDelay())
	}
}

// With D=1 the wave schedule admits everything: behaviour matches BLESS
// timing for a lone packet.
func TestSinglePacketTimingD1(t *testing.T) {
	h := newHarness(t, defCfg(1), nil)
	mesh := h.cfg.Mesh()
	src, dst := geom.Coord{X: 0, Y: 0}, geom.Coord{X: 3, Y: 2}
	p := h.pkt(src, dst, 0, packet.Ctrl)
	h.f.Inject(mesh.ID(src), p, 0)
	h.steps(40)
	if p.EjectedAt != int64(5*3) {
		t.Errorf("EjectedAt = %d, want 15", p.EjectedAt)
	}
}

// The §5.1.3 ejection miss: with D = 4 (6 % 4 ≠ 0), a packet whose last
// leg rides the N sub-wave arrives at its destination on a wave whose
// SE counterpart belongs to another domain, so it must deflect at its
// own destination.
func TestEjectionMissDeflectsAtDestination(t *testing.T) {
	h := newHarness(t, defCfg(4), nil)
	mesh := h.cfg.Mesh()
	// A purely northward journey rides WN; pick a destination row where
	// 2·P·y mod D ≠ 0 ⇒ misalignment (P=3, D=4: y odd ⇒ 6y mod 4 = 2).
	src, dst := geom.Coord{X: 3, Y: 6}, geom.Coord{X: 3, Y: 1}
	p := h.pkt(src, dst, 0, packet.Ctrl)
	h.f.Inject(mesh.ID(src), p, 0)
	h.steps(200)
	if p.EjectedAt < 0 {
		t.Fatal("packet not delivered")
	}
	if p.Deflections == 0 {
		t.Errorf("expected an ejection-miss deflection for a northbound packet at D=4")
	}
}

// And the aligned counterpart: D = 2 ejects northbound packets without
// any deflection.
func TestEjectionAlignedNoDeflection(t *testing.T) {
	h := newHarness(t, defCfg(2), nil)
	mesh := h.cfg.Mesh()
	src, dst := geom.Coord{X: 3, Y: 6}, geom.Coord{X: 3, Y: 1}
	p := h.pkt(src, dst, 1, packet.Ctrl)
	h.f.Inject(mesh.ID(src), p, 0)
	h.steps(200)
	if p.EjectedAt < 0 {
		t.Fatal("packet not delivered")
	}
	if p.Deflections != 0 {
		t.Errorf("aligned domain deflected %d times", p.Deflections)
	}
}

func TestInjectContractPanics(t *testing.T) {
	h := newHarness(t, defCfg(2), nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("bad domain accepted")
			}
		}()
		h.f.Inject(0, h.pkt(geom.Coord{}, geom.Coord{X: 1, Y: 0}, 7, packet.Ctrl), 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("packet wider than slot accepted")
			}
		}()
		h.f.Inject(0, h.pkt(geom.Coord{}, geom.Coord{X: 1, Y: 0}, 0, packet.Data), 0)
	}()
}

// Saturation stress with the always-on wave assertions: any domain
// leakage or balance violation panics, so surviving the run IS the
// confinement proof at the router level.
func TestStressAllDomainsAssertionsHold(t *testing.T) {
	for _, domains := range []int{2, 3, 4, 5, 6, 7} {
		h := newHarness(t, defCfg(domains), nil)
		mesh := h.cfg.Mesh()
		injected := 0
		for cyc := 0; cyc < 300; cyc++ {
			for node := 0; node < mesh.Nodes(); node += 3 {
				src := mesh.CoordOf(node)
				dst := mesh.CoordOf((node*11 + cyc*5 + 13) % mesh.Nodes())
				if dst == src {
					continue
				}
				dom := (node + cyc) % domains
				if h.f.Inject(node, h.pkt(src, dst, dom, packet.Ctrl), h.now) {
					injected++
				}
			}
			h.f.Step(h.now)
			h.now++
		}
		for i := 0; i < 20000 && h.f.InFlight() > 0; i++ {
			h.f.Step(h.now)
			h.now++
		}
		if h.f.InFlight() != 0 {
			t.Fatalf("D=%d: %d packets never delivered", domains, h.f.InFlight())
		}
		if len(h.got) != injected {
			t.Errorf("D=%d: delivered %d of %d", domains, len(h.got), injected)
		}
		if err := h.f.Audit(); err != nil {
			t.Error(err)
		}
	}
}

// Multi-flit worms with the §5.2 wave sets under stress.
func TestWormStress(t *testing.T) {
	cfg := defCfg(3)
	cfg.InjectionVCDepth = 5
	cfg.WaveSets = wave.PaperSets(5)
	h := newHarness(t, cfg, []int{1, 5, 5})
	mesh := cfg.Mesh()
	injected := 0
	for cyc := 0; cyc < 400; cyc++ {
		for node := 0; node < mesh.Nodes(); node += 5 {
			src := mesh.CoordOf(node)
			dst := mesh.CoordOf((node*17 + cyc*3 + 7) % mesh.Nodes())
			if dst == src {
				continue
			}
			dom := (node/5 + cyc) % 3
			class := packet.Data
			if dom == 0 {
				class = packet.Ctrl
			}
			if h.f.Inject(node, h.pkt(src, dst, dom, class), h.now) {
				injected++
			}
		}
		h.f.Step(h.now)
		h.now++
	}
	for i := 0; i < 40000 && h.f.InFlight() > 0; i++ {
		h.f.Step(h.now)
		h.now++
	}
	if h.f.InFlight() != 0 {
		t.Fatalf("%d worms never delivered", h.f.InFlight())
	}
	if len(h.got) != injected {
		t.Errorf("delivered %d of %d", len(h.got), injected)
	}
}

func TestStepMonotonic(t *testing.T) {
	h := newHarness(t, defCfg(1), nil)
	h.f.Step(5)
	defer func() {
		if recover() == nil {
			t.Error("non-monotonic Step must panic")
		}
	}()
	h.f.Step(5)
}

func TestBackpressureAndAudit(t *testing.T) {
	h := newHarness(t, defCfg(1), nil)
	accepted := 0
	for i := 0; i < h.cfg.InjectionQueueCap+3; i++ {
		if h.f.Inject(0, h.pkt(geom.Coord{X: 0, Y: 0}, geom.Coord{X: 7, Y: 7}, 0, packet.Ctrl), 0) {
			accepted++
		}
	}
	if accepted != h.cfg.InjectionQueueCap {
		t.Errorf("accepted %d, want %d", accepted, h.cfg.InjectionQueueCap)
	}
	if err := h.f.Audit(); err != nil {
		t.Error(err)
	}
	if h.f.InFlight() != accepted {
		t.Errorf("InFlight = %d, want %d", h.f.InFlight(), accepted)
	}
}
