package surfbless_test

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// allocHarness is one fabric plus its traffic generator, warmed to
// steady state: every router scratch buffer, link queue, NI queue and
// free-list slot has grown to its working capacity, so further
// stepping must not allocate.
type allocHarness struct {
	fab network.Fabric
	gen *traffic.Generator
	p   *probe.Probe // nil = unprobed; Probe methods are nil-safe
	now int64
}

// newAllocHarness builds a warmed 8×8 fabric at moderate load.
// recycle arms the packet free list (disabled for RUNAHEAD, whose
// retry timers hold packets past ejection).  A non-nil p is wired as
// the fabric and collector probe before warm-up, so the event ring,
// interval series and heatmaps all reach working capacity too.
// shards > 1 steps the mesh as that many parallel tiles.
func newAllocHarness(tb testing.TB, model config.Model, warmup int64, p *probe.Probe, shards int) *allocHarness {
	tb.Helper()
	cfg := config.Default(model)
	cfg.Domains = 2
	col := stats.NewCollector(2, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())

	fl := &packet.FreeList{}
	recycle := model != config.RUNAHEAD
	var sink func(int, *packet.Packet, int64)
	if recycle {
		sink = func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }
	}
	fab, err := sim.BuildFabric(cfg, nil, sink, col, meter)
	if err != nil {
		tb.Fatal(err)
	}
	if p != nil {
		col.SetProbe(p)
		if ps, ok := fab.(interface{ SetProbe(*probe.Probe) }); ok {
			ps.SetProbe(p)
		}
	}
	if shards > 1 {
		ss, ok := fab.(interface {
			SetShards(int) error
			StopShards()
		})
		if !ok {
			tb.Fatalf("%v fabric has no sharded stepping", model)
		}
		if err := ss.SetShards(shards); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(ss.StopShards)
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, []traffic.Source{
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
	}, 1)
	if recycle {
		gen.SetFreeList(fl)
	}
	h := &allocHarness{fab: fab, gen: gen, p: p}
	for ; h.now < warmup; h.now++ {
		gen.Tick(fab, h.now)
		fab.Step(h.now)
		h.p.Tick(h.now, fab.InFlight())
	}
	if recycle {
		// Spare packets absorb in-flight-count fluctuation above the
		// warm-up baseline, and pre-grow the free list's own backing
		// array, so neither the generator nor Put allocates later.
		for i := 0; i < 4096; i++ {
			fl.Put(packet.New(0, geom.Coord{}, geom.Coord{}, 0, packet.Ctrl, 0))
		}
	}
	return h
}

// cycles advances the harness n cycles (traffic + stepping).
func (h *allocHarness) cycles(n int) {
	for i := 0; i < n; i++ {
		h.gen.Tick(h.fab, h.now)
		h.fab.Step(h.now)
		h.p.Tick(h.now, h.fab.InFlight())
		h.now++
	}
}

// stepOnly advances n cycles without generating traffic.
func (h *allocHarness) stepOnly(n int) {
	for i := 0; i < n; i++ {
		h.fab.Step(h.now)
		h.p.Tick(h.now, h.fab.InFlight())
		h.now++
	}
}

// TestStepNoAlloc asserts the tentpole claim of DESIGN.md §12: after
// warm-up, steady-state stepping performs zero heap allocations on
// every fabric, serial and — on the fabrics that shard — stepped as
// four parallel tiles.  The simulation is deterministic, so this is an
// exact assertion, not a flaky statistical one.
func TestStepNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	type input struct {
		model  config.Model
		shards int
	}
	var inputs []input
	for _, model := range []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	} {
		inputs = append(inputs, input{model, 1})
	}
	for _, model := range []config.Model{config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER} {
		inputs = append(inputs, input{model, 4})
	}
	for _, in := range inputs {
		model := in.model
		name := model.String()
		if in.shards > 1 {
			name += "-sharded"
		}
		t.Run(name, func(t *testing.T) {
			h := newAllocHarness(t, model, 3000, nil, in.shards)
			window := func() float64 {
				if model == config.RUNAHEAD {
					// RUNAHEAD cannot recycle (its retry heap reads
					// EjectedAt after ejection), so packet construction in
					// Tick still allocates; the guarantee covers Step
					// itself, fed by the NI backlog built during warm-up.
					return testing.AllocsPerRun(1, func() { h.stepOnly(500) })
				}
				return testing.AllocsPerRun(1, func() { h.cycles(500) })
			}
			// Scratch buffers, link queues and VC fifos grow toward their
			// (bounded) working capacity for tens of thousands of cycles:
			// ever-rarer traffic bursts set new occupancy maxima.  Warm
			// until ten consecutive 500-cycle windows are clean, then
			// demand the next windows stay clean too — a true per-cycle
			// leak never produces a clean window and fails the attempt
			// budget.  The run is deterministic, so a pass is exact and
			// repeatable, not statistical.
			streak := 0
			for attempt := 0; streak < 10; attempt++ {
				if attempt == 600 {
					t.Fatalf("%v: stepping still allocates after 300k warm-up cycles (steady-state leak)", model)
				}
				if window() == 0 {
					streak++
				} else {
					streak = 0
				}
			}
			var avg float64
			if model == config.RUNAHEAD {
				avg = testing.AllocsPerRun(5, func() { h.stepOnly(500) })
			} else {
				avg = testing.AllocsPerRun(5, func() { h.cycles(500) })
			}
			if avg != 0 {
				t.Errorf("%v: %.2f allocs per 500 steady-state cycles, want 0", model, avg)
			}
		})
	}
}

// TestStepNoAllocProbed extends the zero-allocation guarantee to fully
// observed stepping (DESIGN.md §15): an armed probe with a bounded
// measurement window — so Arm preallocates every interval bucket and
// ring segment — plus a flight-recorder tap must not add a single
// allocation to steady-state cycles.  Covers the gated fabrics; the
// probe code paths are model-independent.
func TestStepNoAllocProbed(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	for _, model := range []config.Model{config.SB, config.WH, config.Surf} {
		t.Run(model.String(), func(t *testing.T) {
			p := &probe.Probe{}
			cfg := config.Default(model)
			// MeasureEnd bounds the run so the interval series is fully
			// preallocated at Arm; it comfortably exceeds the warm-up
			// attempt budget below (600 × 500 cycles + warm-up).
			p.Arm(probe.Config{Mesh: cfg.Mesh(), Domains: 2, Every: 100, WarmupEnd: 0, MeasureEnd: 400_000})
			p.AttachTap(probe.NewFlightRecorder(0))
			h := newAllocHarness(t, model, 3000, p, 1)
			streak := 0
			for attempt := 0; streak < 10; attempt++ {
				if attempt == 600 {
					t.Fatalf("%v: probed stepping still allocates after 300k warm-up cycles", model)
				}
				if testing.AllocsPerRun(1, func() { h.cycles(500) }) == 0 {
					streak++
				} else {
					streak = 0
				}
			}
			if avg := testing.AllocsPerRun(5, func() { h.cycles(500) }); avg != 0 {
				t.Errorf("%v: %.2f allocs per 500 probed steady-state cycles, want 0", model, avg)
			}
		})
	}
}
