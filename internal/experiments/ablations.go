package experiments

import (
	"fmt"

	"surfbless/internal/coherence"
	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/power"
	"surfbless/internal/router/surfbless"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/system"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
	"surfbless/internal/wave"
)

// Ablations beyond the paper's evaluation, quantifying design choices
// DESIGN.md calls out.

// WaveSetRow compares a wave-set placement on one application.
type WaveSetRow struct {
	App          string
	TunedExec    int64
	PaperExec    int64
	TunedLatency float64
	PaperLatency float64
}

// AblationWaveSets compares the tuned multiple-of-2P worm-window
// placement against the paper's literal {0,15,30}/{7,22,37} sets on a
// subset of applications.  The tuned placement creates wave turn rows
// every couple of hops (see wave.StrideSets) and should win clearly.
func AblationWaveSets(sc Scale) ([]WaveSetRow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	var points []system.Options
	for _, app := range []string{"swaptions", "dedup", "canneal"} {
		prof, err := cpu.ProfileByName(app)
		if err != nil {
			return nil, err
		}
		tuned := system.Options{Model: config.SB, App: prof, InstrPerCore: sc.Instr, Seed: sc.Seed}
		paper := tuned
		paper.WaveSets = wave.PaperSets(coherence.DataFlits)
		points = append(points, tuned, paper)
	}
	outs, err := runPoints(points, func(o system.Options) (system.Result, error) {
		out, err := runSystem(o)
		if err != nil {
			sets := "tuned"
			if o.WaveSets != nil {
				sets = "paper"
			}
			return out, fmt.Errorf("ablation wavesets %s %s: %w", o.App.Name, sets, err)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	var rows []WaveSetRow
	for i := 0; i < len(outs); i += 2 {
		tuned, paper := outs[i], outs[i+1]
		rows = append(rows, WaveSetRow{
			App:          points[i].App.Name,
			TunedExec:    tuned.ExecCycles,
			PaperExec:    paper.ExecCycles,
			TunedLatency: tuned.Total.AvgTotalLatency(),
			PaperLatency: paper.Total.AvgTotalLatency(),
		})
	}
	return rows, nil
}

// WaveSetTable renders the wave-placement ablation.
func WaveSetTable(rows []WaveSetRow) *textplot.Table {
	t := textplot.NewTable("Ablation: SB worm-window placement (tuned 2P-stride vs paper's literal sets)",
		"app", "exec_tuned", "exec_paper_sets", "exec_ratio", "lat_tuned", "lat_paper_sets")
	for _, r := range rows {
		t.Row(r.App,
			fmt.Sprintf("%d", r.TunedExec), fmt.Sprintf("%d", r.PaperExec),
			textplot.F(float64(r.PaperExec)/float64(r.TunedExec)),
			textplot.F(r.TunedLatency), textplot.F(r.PaperLatency))
	}
	return t
}

// RoutingRow compares §4.3 Step-2 variants at one offered load.
type RoutingRow struct {
	Variant     string
	Latency     float64
	Deflections float64
	Throughput  float64
}

// AblationRouting measures the contribution of the Y-X fallback and the
// random deflection choice to SB's routing (D = 4 — a misaligned
// domain count where deflection policy matters — at a moderate load).
func AblationRouting(sc Scale) ([]RoutingRow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	const domains, rate = 4, 0.15
	type variant struct {
		name string
		pol  surfbless.Policy
	}
	variants := []variant{
		{"paper (XY, YX, random)", surfbless.Policy{}},
		{"no YX fallback", surfbless.Policy{DisableYX: true}},
		{"fixed-order deflection", surfbless.Policy{DisableRandom: true}},
	}
	return runPoints(variants, func(v variant) (RoutingRow, error) {
		cfg := fig6Config(config.SB, domains)
		col := stats.NewCollector(domains, sc.Warmup, sc.Warmup+sc.Measure)
		meter := power.NewMeter(cfg, power.Default45nm())
		fab, err := surfbless.NewWithPolicy(cfg, nil, v.pol, nil, col, meter)
		if err != nil {
			return RoutingRow{}, fmt.Errorf("ablation routing %s: %w", v.name, err)
		}
		gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, traffic.EvenSplit(rate, domains), sc.Seed)
		now := int64(0)
		for ; now < sc.Warmup+sc.Measure; now++ {
			gen.Tick(fab, now)
			fab.Step(now)
		}
		for end := now + sc.Drain; now < end && fab.InFlight() > 0; now++ {
			fab.Step(now)
		}
		tot := col.Total()
		return RoutingRow{
			Variant:     v.name,
			Latency:     tot.AvgTotalLatency(),
			Deflections: tot.AvgDeflections(),
			Throughput:  float64(tot.Ejected) / float64(cfg.Nodes()) / float64(sc.Measure),
		}, nil
	})
}

// RoutingTable renders the routing ablation.
func RoutingTable(rows []RoutingRow) *textplot.Table {
	t := textplot.NewTable("Ablation: SB §4.3 Step-2 variants (D=4, 0.15 pkts/node/cycle)",
		"variant", "avg_latency", "deflections/pkt", "throughput")
	for _, r := range rows {
		t.Row(r.Variant, textplot.F(r.Latency), textplot.F(r.Deflections), textplot.F(r.Throughput))
	}
	return t
}

// MeshRow is one mesh-size point of the scaling sweep.
type MeshRow struct {
	N       int
	Smax    int
	Latency float64
	Energy  power.Energy
}

// AblationMeshSweep scales the mesh (the Smax = 2·P·(N−1) law) at a
// fixed per-node load and two domains, showing that the distributed
// schedulers need no global coordination to keep working as N grows.
func AblationMeshSweep(sc Scale) ([]MeshRow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return runPoints([]int{4, 6, 8, 10}, func(n int) (MeshRow, error) {
		cfg := fig6Config(config.SB, 2)
		cfg.Width, cfg.Height = n, n
		out, err := runSim(sim.Options{
			Cfg:     cfg,
			Pattern: traffic.UniformRandom,
			Sources: traffic.EvenSplit(0.05, 2),
			Warmup:  sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
			Seed: sc.Seed,
		})
		if err != nil {
			return MeshRow{}, fmt.Errorf("mesh sweep N=%d: %w", n, err)
		}
		return MeshRow{
			N:       n,
			Smax:    cfg.Smax(),
			Latency: out.Total.AvgTotalLatency(),
			Energy:  out.Energy,
		}, nil
	})
}

// MeshTable renders the mesh-size sweep.
func MeshTable(rows []MeshRow) *textplot.Table {
	t := textplot.NewTable("Ablation: mesh-size scaling of SB (2 domains, 0.05 total load)",
		"N", "Smax", "avg_latency", "energy_total_mJ")
	for _, r := range rows {
		t.Row(fmt.Sprintf("%d", r.N), fmt.Sprintf("%d", r.Smax),
			textplot.F(r.Latency), textplot.MJ(r.Energy.Total()))
	}
	return t
}
