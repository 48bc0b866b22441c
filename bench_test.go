// Benchmarks: one per table/figure of the paper's evaluation (each
// iteration regenerates the figure's data at the Tiny scale and reports
// the headline quantities via b.ReportMetric), plus ablation and
// micro-benchmarks of the simulator itself.
//
// Run a single figure with e.g.
//
//	go test -bench=BenchmarkFig6 -benchtime=1x
//
// Timings stay honest: TestMain pins the experiments result cache off,
// so every iteration performs real simulations even if some earlier
// test or harness installed a cache in the same process.
package surfbless_test

import (
	"fmt"
	"os"
	"sort"
	"testing"
	"time"

	"surfbless"
	"surfbless/internal/config"
	"surfbless/internal/experiments"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/system"
	"surfbless/internal/traffic"
)

// TestMain keeps the benchmarks cache-free: cached figure
// regeneration would report the cost of a map lookup, not of the
// simulator.
func TestMain(m *testing.M) {
	experiments.SetCache(nil)
	os.Exit(m.Run())
}

// BenchmarkTable1Config regenerates Table 1 from the live configuration.
func BenchmarkTable1Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t := experiments.Table1()
		if t.Rows() < 11 {
			b.Fatal("Table 1 incomplete")
		}
	}
}

// BenchmarkFig5aInterferenceLatency reproduces Fig. 5(a): the victim
// domain's latency under rising interference on BLESS vs SB.
func BenchmarkFig5aInterferenceLatency(b *testing.B) {
	var r experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig5(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Rates) - 1
	b.ReportMetric(r.SBLatency[last]-r.SBLatency[0], "SB_latency_drift_cycles")
	b.ReportMetric(r.BLESSLatency[last]-r.BLESSLatency[0], "BLESS_latency_drift_cycles")
}

// BenchmarkFig5bInterferenceThroughput reproduces Fig. 5(b).
func BenchmarkFig5bInterferenceThroughput(b *testing.B) {
	var r experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig5(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	last := len(r.Rates) - 1
	b.ReportMetric(r.SBThroughput[last]/r.SBThroughput[0], "SB_throughput_ratio")
	b.ReportMetric(r.BLESSThroughput[last]/r.BLESSThroughput[0], "BLESS_throughput_ratio")
}

// BenchmarkFig6EnergyDomains reproduces Fig. 6: energy vs domain count
// for WH, BLESS, Surf(D) and SB(D).
func BenchmarkFig6EnergyDomains(b *testing.B) {
	var r experiments.Fig6Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig6(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	var surf9, sb9 float64
	for _, row := range r.Rows {
		if row.Label == "Surf 9_D" {
			surf9 = row.Energy.Total()
		}
		if row.Label == "SB 9_D" {
			sb9 = row.Energy.Total()
		}
	}
	b.ReportMetric(sb9/surf9, "SB9_over_Surf9_energy")
}

// BenchmarkFig7aLatencySB reproduces Fig. 7(a): SB latency vs load
// across domain counts (D_1 = BLESS).
func BenchmarkFig7aLatencySB(b *testing.B) {
	var r experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig7Domains(experiments.Tiny(), []int{1, 2, 3, 4, 6, 9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.A[1].Latency[1], "D2_latency_low_load")
	b.ReportMetric(r.A[3].Latency[1], "D4_latency_low_load")
}

// BenchmarkFig7bLatencySurf reproduces Fig. 7(b): Surf latency vs load
// across domain counts (D_1 = WH).
func BenchmarkFig7bLatencySurf(b *testing.B) {
	var r experiments.Fig7Result
	var err error
	for i := 0; i < b.N; i++ {
		if r, err = experiments.Fig7Domains(experiments.Tiny(), []int{1, 2, 4, 9}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.B[0].Latency[1], "WH_latency_low_load")
	b.ReportMetric(r.B[3].Latency[1], "D9_latency_low_load")
}

// appsOnce caches the §5.2 matrix so Figs. 8, 9 and 10 share one run
// set per benchmark invocation.
func appsRun(b *testing.B) experiments.AppsResult {
	b.Helper()
	r, err := experiments.Apps(experiments.Tiny())
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig8ExecutionTime reproduces Fig. 8: per-application
// execution time on WH, Surf and SB.
func BenchmarkFig8ExecutionTime(b *testing.B) {
	var r experiments.AppsResult
	for i := 0; i < b.N; i++ {
		r = appsRun(b)
	}
	b.ReportMetric(r.SBExecPenalty()*100, "SB_exec_penalty_%")
}

// BenchmarkFig9PacketLatency reproduces Fig. 9: the queue/network
// latency breakdown normalized to WH.
func BenchmarkFig9PacketLatency(b *testing.B) {
	var r experiments.AppsResult
	for i := 0; i < b.N; i++ {
		r = appsRun(b)
	}
	// Mean SB total latency relative to WH across apps.
	var sum float64
	for _, app := range r.Apps {
		sum += r.Runs[app][config.SB].Total.AvgTotalLatency() /
			r.Runs[app][config.WH].Total.AvgTotalLatency()
	}
	b.ReportMetric(sum/float64(len(r.Apps)), "SB_latency_vs_WH")
}

// BenchmarkFig10AppEnergy reproduces Fig. 10: per-application NoC
// energy breakdown.
func BenchmarkFig10AppEnergy(b *testing.B) {
	var r experiments.AppsResult
	for i := 0; i < b.N; i++ {
		r = appsRun(b)
	}
	b.ReportMetric(r.SBEnergySaving()*100, "SB_energy_saving_%")
}

// --- Ablation benches (design choices called out in DESIGN.md) ---

// BenchmarkAblationWaveSets compares the tuned worm-window placement
// against the paper's literal sets.
func BenchmarkAblationWaveSets(b *testing.B) {
	var rows []experiments.WaveSetRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblationWaveSets(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	var ratio float64
	for _, r := range rows {
		ratio += float64(r.PaperExec) / float64(r.TunedExec)
	}
	b.ReportMetric(ratio/float64(len(rows)), "paper_sets_exec_ratio")
}

// BenchmarkAblationRouting compares §4.3 Step-2 variants.
func BenchmarkAblationRouting(b *testing.B) {
	var rows []experiments.RoutingRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.AblationRouting(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].Deflections-rows[0].Deflections, "noYX_extra_deflections")
}

// BenchmarkAblationMeshSweep measures SB across mesh sizes (Smax law).
func BenchmarkAblationMeshSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationMeshSweep(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Micro-benchmarks of the simulator core ---

// benchWarmup is the unmeasured lead-in that grows every scratch
// buffer, link queue and free-list slot to working capacity, so the
// timed loop measures pure steady-state stepping (DESIGN.md §12).
const benchWarmup = 3000

// benchSources is the Step rigs' traffic: uniform random at 0.025
// packets/node/cycle in each of two domains (0.05 total load).
var benchSources = []traffic.Source{
	{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
	{Rate: 0.025, Class: packet.Ctrl, VNet: -1},
}

// benchFabric drives one fabric for b.N cycles after a warm-up, with
// the packet free list armed as sim.Run arms it; allocs/op is reported
// and expected to be 0 — TestStepNoAlloc asserts the same property
// exactly.  The timed loop runs gen.Tick as well as Step, so ns/op is a
// whole cycle — generation plus stepping (BenchmarkTick times
// generation alone).  The observed path's cost is measured by the
// interleaved Overhead rigs below.
func benchFabric(b *testing.B, model config.Model) {
	cfg := config.Default(model)
	cfg.Domains = 2
	col := stats.NewCollector(2, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	fl := &packet.FreeList{}
	fab, err := sim.BuildFabric(cfg, nil, func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }, col, meter)
	if err != nil {
		b.Fatal(err)
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, benchSources, 1)
	gen.SetFreeList(fl)
	now := int64(0)
	for ; now < benchWarmup; now++ {
		gen.Tick(fab, now)
		fab.Step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := now + int64(b.N); now < end; now++ {
		gen.Tick(fab, now)
		fab.Step(now)
	}
	b.ReportMetric(float64(cfg.Nodes()), "routers/cycle")
}

// BenchmarkStepSB measures simulated SB cycles per second at 0.05 load.
func BenchmarkStepSB(b *testing.B) { benchFabric(b, config.SB) }

// BenchmarkStepBLESS measures simulated BLESS cycles per second.
func BenchmarkStepBLESS(b *testing.B) { benchFabric(b, config.BLESS) }

// BenchmarkStepWH measures simulated WH cycles per second.
func BenchmarkStepWH(b *testing.B) { benchFabric(b, config.WH) }

// BenchmarkStepSurf measures simulated Surf cycles per second.
func BenchmarkStepSurf(b *testing.B) { benchFabric(b, config.Surf) }

// benchFabricGiant drives one fabric on a 32×32 mesh (16× the paper's
// node count) for b.N cycles after the standard warm-up, optionally
// stepping the mesh as parallel tiles.  Like benchFabric it times
// gen.Tick with Step, and generation stays serial when the mesh is
// sharded.  The sharded entries are the wall-clock counterpart of the
// bit-identity gate (`make bench-shard`, DESIGN.md §17): same
// schedule, measured instead of compared.
func benchFabricGiant(b *testing.B, model config.Model, shards int) {
	cfg := config.Default(model)
	cfg.Width, cfg.Height = 32, 32
	cfg.Domains = 2
	col := stats.NewCollector(2, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	fl := &packet.FreeList{}
	fab, err := sim.BuildFabric(cfg, nil, func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }, col, meter)
	if err != nil {
		b.Fatal(err)
	}
	if shards > 1 {
		if err := fab.SetShards(shards); err != nil {
			b.Fatal(err)
		}
		defer fab.StopShards()
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, benchSources, 1)
	gen.SetFreeList(fl)
	now := int64(0)
	for ; now < benchWarmup; now++ {
		gen.Tick(fab, now)
		fab.Step(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for end := now + int64(b.N); now < end; now++ {
		gen.Tick(fab, now)
		fab.Step(now)
	}
	b.ReportMetric(float64(cfg.Nodes()), "routers/cycle")
}

// BenchmarkStepSBGiant measures serial SB stepping at 32×32.
func BenchmarkStepSBGiant(b *testing.B) { benchFabricGiant(b, config.SB, 1) }

// BenchmarkStepSBGiantSharded is BenchmarkStepSBGiant on four tiles.
func BenchmarkStepSBGiantSharded(b *testing.B) { benchFabricGiant(b, config.SB, 4) }

// BenchmarkStepWHGiant measures serial WH stepping at 32×32.
func BenchmarkStepWHGiant(b *testing.B) { benchFabricGiant(b, config.WH, 1) }

// BenchmarkStepWHGiantSharded is BenchmarkStepWHGiant on four tiles.
func BenchmarkStepWHGiantSharded(b *testing.B) { benchFabricGiant(b, config.WH, 4) }

// BenchmarkStepSurfGiant measures serial Surf stepping at 32×32.
func BenchmarkStepSurfGiant(b *testing.B) { benchFabricGiant(b, config.Surf, 1) }

// BenchmarkStepSurfGiantSharded is BenchmarkStepSurfGiant on four tiles.
func BenchmarkStepSurfGiantSharded(b *testing.B) { benchFabricGiant(b, config.Surf, 4) }

// benchStepOverhead measures the probe's hot-path cost as a ratio: it
// builds twin rigs — one probed (an event ring feeding a 100-cycle
// probe.Series), one not — and steps them in
// alternating short chunks, reporting the median per-pair
// probed/unprobed wall-time as the "probed/unprobed" metric.  Both
// sides' chunks include gen.Tick, so the ratio is over whole cycles.
// Timing both sides within the same few milliseconds cancels the
// machine-level drift (frequency scaling, noisy neighbours) that makes
// ratios of two independently timed benchmarks useless for a 10%
// budget; the median over many pairs discards the chunks a
// descheduling spike lands in.  `make probe-overhead` gates on this
// metric via benchjson.
func benchStepOverhead(b *testing.B, model config.Model) {
	const chunk = 500 // cycles per timed slice: ~ms, well under drift timescales
	type rig struct {
		fab network.Fabric
		gen *traffic.Generator
		p   *probe.Probe
		now int64
	}
	build := func(probed bool) *rig {
		cfg := config.Default(model)
		cfg.Domains = 2
		col := stats.NewCollector(2, 0, 0)
		meter := power.NewMeter(cfg, power.Default45nm())
		fl := &packet.FreeList{}
		fab, err := sim.BuildFabric(cfg, nil, func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }, col, meter)
		if err != nil {
			b.Fatal(err)
		}
		r := &rig{fab: fab}
		if probed {
			r.p = &probe.Probe{}
			r.p.Arm(probe.Config{Mesh: cfg.Mesh(), Domains: 2, WarmupEnd: 0, MeasureEnd: benchWarmup + int64(b.N)},
				probe.NewSeries(100))
			fab.SetProbe(r.p)
		}
		r.gen = traffic.New(cfg.Mesh(), traffic.UniformRandom, benchSources, 1)
		r.gen.SetFreeList(fl)
		for ; r.now < benchWarmup; r.now++ {
			r.gen.Tick(r.fab, r.now)
			r.fab.Step(r.now)
			if r.p != nil {
				r.p.Tick(r.now, r.fab.InFlight())
			}
		}
		return r
	}
	plain, probed := build(false), build(true)
	runChunk := func(r *rig, n int64) time.Duration {
		start := time.Now()
		for end := r.now + n; r.now < end; r.now++ {
			r.gen.Tick(r.fab, r.now)
			r.fab.Step(r.now)
			if r.p != nil {
				r.p.Tick(r.now, r.fab.InFlight())
			}
		}
		return time.Since(start)
	}
	ratios := make([]float64, 0, int64(b.N)/chunk+1)
	b.ResetTimer()
	for remaining := int64(b.N); remaining > 0; remaining -= chunk {
		n := min(chunk, remaining)
		// Alternate which rig goes first so a within-pair trend (cache
		// warming, GC) biases neither side.
		var tu, tp time.Duration
		if len(ratios)%2 == 0 {
			tu, tp = runChunk(plain, n), runChunk(probed, n)
		} else {
			tp, tu = runChunk(probed, n), runChunk(plain, n)
		}
		if tu > 0 {
			ratios = append(ratios, float64(tp)/float64(tu))
		}
	}
	b.StopTimer()
	if len(ratios) > 0 {
		sort.Float64s(ratios)
		b.ReportMetric(ratios[len(ratios)/2], "probed/unprobed")
	}
	b.ReportMetric(float64(config.Default(model).Nodes()), "routers/cycle")
}

// BenchmarkStepSBOverhead gates SB's probed-Step budget (≤ 1.10x).
func BenchmarkStepSBOverhead(b *testing.B) { benchStepOverhead(b, config.SB) }

// BenchmarkStepWHOverhead gates WH's probed-Step budget.
func BenchmarkStepWHOverhead(b *testing.B) { benchStepOverhead(b, config.WH) }

// BenchmarkStepSurfOverhead gates Surf's probed-Step budget.
func BenchmarkStepSurfOverhead(b *testing.B) { benchStepOverhead(b, config.Surf) }

// BenchmarkSystemCycle measures full-system simulation speed (cores +
// MESI + SB NoC).
func BenchmarkSystemCycle(b *testing.B) {
	app, err := surfbless.Application("swaptions")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := system.Run(system.Options{
			Model: config.SB, App: app, InstrPerCore: 500, Seed: 3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtensionBufferless compares BLESS, CHIPPER and SB.
func BenchmarkExtensionBufferless(b *testing.B) {
	var rows []experiments.BufferlessRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.ExtensionBufferless(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Model == config.CHIPPER && r.Rate == 0.25 {
			b.ReportMetric(float64(r.P99Latency), "CHIPPER_p99_high_load")
		}
	}
}

// BenchmarkExtensionPatterns verifies confinement across patterns.
func BenchmarkExtensionPatterns(b *testing.B) {
	var rows []experiments.PatternRow
	var err error
	for i := 0; i < b.N; i++ {
		if rows, err = experiments.ExtensionPatterns(experiments.Tiny()); err != nil {
			b.Fatal(err)
		}
	}
	var drift float64
	for _, r := range rows {
		drift += r.VictimDrift
	}
	b.ReportMetric(drift, "SB_total_drift_cycles")
}

// BenchmarkStepCHIPPER measures simulated CHIPPER cycles per second.
func BenchmarkStepCHIPPER(b *testing.B) { benchFabric(b, config.CHIPPER) }

// BenchmarkStepRUNAHEAD measures simulated Runahead cycles per second.
func BenchmarkStepRUNAHEAD(b *testing.B) { benchFabric(b, config.RUNAHEAD) }

// tickSink is a network.Fabric that accepts every offer and recycles
// the packet at once, so BenchmarkTick times generation alone.
type tickSink struct{ fl *packet.FreeList }

func (s tickSink) Inject(_ int, p *packet.Packet, _ int64) bool { s.fl.Put(p); return true }
func (tickSink) Step(int64)                                     {}
func (tickSink) InFlight() int                                  { return 0 }
func (tickSink) Audit() error                                   { return nil }

// BenchmarkTick times the traffic generator on its own — one Tick per
// op, with the Step rigs' sources and free list — on the paper's 8×8
// mesh and on the 32×32 giant mesh.  The Step benchmarks above include
// this cost in their cycle time.
func BenchmarkTick(b *testing.B) {
	for _, side := range []int{8, 32} {
		b.Run(fmt.Sprintf("%dx%d", side, side), func(b *testing.B) {
			m := geom.NewMesh(side, side)
			fl := &packet.FreeList{}
			sink := tickSink{fl}
			gen := traffic.New(m, traffic.UniformRandom, benchSources, 1)
			gen.SetFreeList(fl)
			now := int64(0)
			for ; now < benchWarmup; now++ {
				gen.Tick(sink, now)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for end := now + int64(b.N); now < end; now++ {
				gen.Tick(sink, now)
			}
			b.ReportMetric(float64(m.Nodes()), "routers/cycle")
		})
	}
}
