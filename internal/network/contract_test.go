// Contract tests: every router model, driven only through the
// network.Fabric interface, must honour the same discipline — Inject
// before Step, exact InFlight bookkeeping, clean conservation audits
// under random traffic, and a full drain back to InFlight()==0 once
// generation stops.  The suite is what makes the models substitutable
// behind sim.BuildFabric (and what makes cached results trustworthy:
// a fabric that leaked or duplicated packets would poison every figure
// derived from it).
package network_test

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

var allModels = []config.Model{
	config.WH, config.BLESS, config.Surf, config.SB,
	config.CHIPPER, config.RUNAHEAD,
}

// harness bundles one fabric with its collector and ejection log.
type harness struct {
	fab network.Fabric
	col *stats.Collector
	cfg config.Config

	ejected map[uint64]int // packet ID → node it was ejected at
}

func newHarness(t *testing.T, model config.Model, domains int, mutate func(*config.Config)) *harness {
	t.Helper()
	cfg := config.Default(model)
	cfg.Width, cfg.Height = 4, 4
	cfg.Domains = domains
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	h := &harness{cfg: cfg, ejected: make(map[uint64]int)}
	h.col = stats.NewCollector(domains, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	sink := func(node int, p *packet.Packet, now int64) {
		if prev, dup := h.ejected[p.ID]; dup {
			t.Errorf("%v: packet %d ejected twice (nodes %d and %d)", model, p.ID, prev, node)
		}
		h.ejected[p.ID] = node
		if got := cfg.Mesh().ID(p.Dst); got != node {
			t.Errorf("%v: packet %d for node %d ejected at node %d", model, got, got, node)
		}
	}
	fab, err := sim.BuildFabric(cfg, nil, sink, h.col, meter)
	if err != nil {
		t.Fatal(err)
	}
	h.fab = fab
	return h
}

// audit checks the fabric's internal invariants and the external
// bookkeeping equation InFlight == created − ejected.
func (h *harness) audit(t *testing.T) {
	t.Helper()
	if err := h.fab.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
	if err := h.col.CheckConservation(h.fab.InFlight()); err != nil {
		t.Fatalf("bookkeeping: %v", err)
	}
}

// drain steps the fabric with no new traffic until it is empty.
func (h *harness) drain(t *testing.T, from int64, budget int64) int64 {
	t.Helper()
	now := from
	for end := from + budget; now < end && h.fab.InFlight() > 0; now++ {
		h.fab.Step(now)
	}
	if left := h.fab.InFlight(); left != 0 {
		t.Fatalf("%d packets still in flight after %d drain cycles", left, budget)
	}
	return now
}

func forEachModel(t *testing.T, f func(t *testing.T, model config.Model)) {
	for _, model := range allModels {
		t.Run(model.String(), func(t *testing.T) { f(t, model) })
	}
}

// TestContractInjectAndDeliver injects a single corner-to-corner packet
// at cycle 0 (before Step(0), as the interface requires) and follows it
// to delivery: exactly one ejection, at the destination, with InFlight
// rising to 1 and falling back to 0.
func TestContractInjectAndDeliver(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		h := newHarness(t, model, 1, nil)
		mesh := h.cfg.Mesh()
		src, dst := mesh.CoordOf(0), mesh.CoordOf(mesh.Nodes()-1)
		p := packet.New(7, src, dst, 0, packet.Ctrl, 0)
		if !h.fab.Inject(0, p, 0) {
			t.Fatal("empty fabric refused an injection")
		}
		if got := h.fab.InFlight(); got != 1 {
			t.Fatalf("InFlight %d after one accepted injection", got)
		}
		h.audit(t)
		h.drain(t, 0, 5000)
		if node, ok := h.ejected[7]; !ok {
			t.Fatal("packet never delivered")
		} else if node != mesh.Nodes()-1 {
			t.Fatalf("delivered to node %d, want %d", node, mesh.Nodes()-1)
		}
		h.audit(t)
	})
}

// TestContractStepMonotonic: Step must run with strictly increasing
// cycle numbers, and every model panics on a repeated or earlier cycle
// instead of silently double-stepping its links.
func TestContractStepMonotonic(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		for _, now := range []int64{5, 4} {
			h := newHarness(t, model, 1, nil)
			for c := int64(0); c <= 5; c++ {
				h.fab.Step(c)
			}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("Step(%d) after Step(5) did not panic", now)
					}
				}()
				h.fab.Step(now)
			}()
		}
	})
}

// TestContractBackpressure fills one node's domain queue within a
// single cycle: Inject must start returning false at the configured
// bound instead of growing without limit, refused offers must not
// count as in flight, and the backlog must still drain completely.
func TestContractBackpressure(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		const cap = 3
		h := newHarness(t, model, 1, func(c *config.Config) { c.InjectionQueueCap = cap })
		mesh := h.cfg.Mesh()
		accepted := 0
		for i := 0; i < cap+5; i++ {
			p := packet.New(uint64(i), mesh.CoordOf(0), mesh.CoordOf(5), 0, packet.Ctrl, 0)
			if h.fab.Inject(0, p, 0) {
				accepted++
			}
		}
		if accepted != cap {
			t.Fatalf("accepted %d offers into a %d-deep queue", accepted, cap)
		}
		if got := h.fab.InFlight(); got != accepted {
			t.Fatalf("InFlight %d, accepted %d — refused offers leaked in", got, accepted)
		}
		h.audit(t)
		h.drain(t, 0, 5000)
		if len(h.ejected) != accepted {
			t.Fatalf("delivered %d of %d accepted packets", len(h.ejected), accepted)
		}
		h.audit(t)
	})
}

// TestContractRandomTraffic drives each fabric with two domains of
// uniform-random traffic, auditing invariants and the InFlight equation
// every 50 cycles, then requires a full drain and created == ejected.
func TestContractRandomTraffic(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		const (
			domains = 2
			cycles  = 600
			rate    = 0.04
		)
		h := newHarness(t, model, domains, nil)
		sources := make([]traffic.Source, domains)
		for i := range sources {
			sources[i] = traffic.Source{Rate: rate, Class: packet.Ctrl, VNet: -1}
		}
		gen := traffic.New(h.cfg.Mesh(), traffic.UniformRandom, sources, 42)
		now := int64(0)
		for ; now < cycles; now++ {
			gen.Tick(h.fab, now)
			h.fab.Step(now)
			if now%50 == 0 {
				h.audit(t)
			}
		}
		if h.col.AllCreated == 0 {
			t.Fatal("generator produced no traffic")
		}
		h.drain(t, now, 30000)
		h.audit(t)
		if h.col.AllEjected != h.col.AllCreated {
			t.Fatalf("created %d, ejected %d after full drain", h.col.AllCreated, h.col.AllEjected)
		}
		if int64(len(h.ejected)) != h.col.AllEjected {
			t.Fatalf("sink saw %d packets, collector %d", len(h.ejected), h.col.AllEjected)
		}
	})
}

// TestContractInFlightMonotonicUnderDrain checks that with no new
// injections InFlight never increases — Step may only move packets out.
func TestContractInFlightMonotonicUnderDrain(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		h := newHarness(t, model, 2, nil)
		sources := []traffic.Source{
			{Rate: 0.05, Class: packet.Ctrl, VNet: -1},
			{Rate: 0.05, Class: packet.Ctrl, VNet: -1},
		}
		gen := traffic.New(h.cfg.Mesh(), traffic.UniformRandom, sources, 7)
		now := int64(0)
		for ; now < 200; now++ {
			gen.Tick(h.fab, now)
			h.fab.Step(now)
		}
		prev := h.fab.InFlight()
		for end := now + 30000; now < end && h.fab.InFlight() > 0; now++ {
			h.fab.Step(now)
			if cur := h.fab.InFlight(); cur > prev {
				t.Fatalf("InFlight grew %d → %d at cycle %d with no injections", prev, cur, now)
			} else {
				prev = cur
			}
		}
		if h.fab.InFlight() != 0 {
			t.Fatalf("drain stalled with %d in flight", h.fab.InFlight())
		}
	})
}

// TestContractDomainsStayLabelled checks through the interface that a
// packet keeps its domain from injection to ejection on every model
// (WH and BLESS merely label domains, Surf and SB confine them — but
// none may relabel).
func TestContractDomainsStayLabelled(t *testing.T) {
	forEachModel(t, func(t *testing.T, model config.Model) {
		const domains = 2
		cfg := config.Default(model)
		cfg.Width, cfg.Height = 4, 4
		cfg.Domains = domains
		col := stats.NewCollector(domains, 0, 0)
		meter := power.NewMeter(cfg, power.Default45nm())
		domainOf := map[uint64]int{}
		sink := func(node int, p *packet.Packet, now int64) {
			want, ok := domainOf[p.ID]
			if !ok {
				t.Errorf("%v: unknown packet %d ejected", model, p.ID)
				return
			}
			if p.Domain != want {
				t.Errorf("%v: packet %d injected in domain %d, ejected in %d", model, p.ID, want, p.Domain)
			}
		}
		fab, err := sim.BuildFabric(cfg, nil, sink, col, meter)
		if err != nil {
			t.Fatal(err)
		}
		mesh := cfg.Mesh()
		now := int64(0)
		id := uint64(0)
		for ; now < 60; now++ {
			for d := 0; d < domains; d++ {
				src := int(id) % mesh.Nodes()
				dst := (src + 1 + int(id)%(mesh.Nodes()-1)) % mesh.Nodes()
				p := packet.New(traffic.PacketID(src, d, id), mesh.CoordOf(src), mesh.CoordOf(dst), d, packet.Ctrl, now)
				if fab.Inject(src, p, now) {
					domainOf[p.ID] = d
				}
				id++
			}
			fab.Step(now)
		}
		for end := now + 30000; now < end && fab.InFlight() > 0; now++ {
			fab.Step(now)
		}
		if fab.InFlight() != 0 {
			t.Fatalf("drain stalled with %d in flight", fab.InFlight())
		}
		if err := fab.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
