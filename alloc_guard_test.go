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

// newAllocHarness builds a warmed 8×8 fabric at moderate load with the
// packet free list armed, as sim.Run arms it.  A non-nil p is wired as
// the fabric's event ring before warm-up, so the ring and its taps all
// reach working capacity too.
// shards > 1 steps the mesh as that many parallel tiles.
func newAllocHarness(tb testing.TB, model config.Model, warmup int64, p *probe.Probe, shards int) *allocHarness {
	tb.Helper()
	cfg := config.Default(model)
	cfg.Domains = 2
	col := stats.NewCollector(2, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())

	fl := &packet.FreeList{}
	fab, err := sim.BuildFabric(cfg, nil, func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }, col, meter)
	if err != nil {
		tb.Fatal(err)
	}
	if p != nil {
		fab.SetProbe(p)
	}
	if shards > 1 {
		if err := fab.SetShards(shards); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(fab.StopShards)
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, []traffic.Source{
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
		{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
	}, 1)
	gen.SetFreeList(fl)
	h := &allocHarness{fab: fab, gen: gen, p: p}
	for ; h.now < warmup; h.now++ {
		gen.Tick(fab, h.now)
		fab.Step(h.now)
		h.p.Tick(h.now, fab.InFlight())
	}
	// Spare packets absorb in-flight-count fluctuation above the warm-up
	// baseline, and pre-grow the free list's own backing array, so
	// neither the generator nor Put allocates later.
	for i := 0; i < 4096; i++ {
		fl.Put(packet.New(0, geom.Coord{}, geom.Coord{}, 0, packet.Ctrl, 0))
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

// TestStepNoAlloc asserts the tentpole claim of DESIGN.md §12: after
// warm-up, steady-state cycles — generation and stepping, with packets
// recycled — perform zero heap allocations on every fabric, serial and
// stepped as four parallel tiles.  The simulation is deterministic, so
// this is an exact assertion, not a flaky statistical one.
func TestStepNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	type input struct {
		model  config.Model
		shards int
	}
	models := []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	}
	var inputs []input
	for _, model := range models {
		inputs = append(inputs, input{model, 1})
	}
	for _, model := range models {
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
				if testing.AllocsPerRun(1, func() { h.cycles(500) }) == 0 {
					streak++
				} else {
					streak = 0
				}
			}
			if avg := testing.AllocsPerRun(5, func() { h.cycles(500) }); avg != 0 {
				t.Errorf("%v: %.2f allocs per 500 steady-state cycles, want 0", model, avg)
			}
		})
	}
}

// TestStepNoAllocProbed extends the zero-allocation guarantee to fully
// observed stepping (DESIGN.md §15): an event ring feeding a Series
// with a bounded measurement window — so Arm preallocates every ring
// segment and interval bucket — plus a flight recorder must not add a
// single allocation to steady-state cycles.  The taps are reached only
// through the Tap interface, which the hotalloc analyzer does not
// follow, so this exact guard is what keeps the Series' fold
// allocation-free.  Covers the gated fabrics; the probe code paths are
// model-independent.
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
			p.Arm(probe.Config{Mesh: cfg.Mesh(), Domains: 2, WarmupEnd: 0, MeasureEnd: 400_000},
				probe.NewSeries(100), probe.NewFlightRecorder(0))
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
