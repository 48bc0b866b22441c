package experiments

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
)

// BufferlessRow is one point of the bufferless-baseline comparison.
type BufferlessRow struct {
	Model       config.Model
	Rate        float64
	MeanLatency float64
	P99Latency  int64 // power-of-two percentile bound
	Deflections float64
	StaticW     float64 // per-router static power, watts
}

// ExtensionBufferless compares the four bufferless routers — BLESS
// (oldest-first, full crossbar), CHIPPER (golden packets, permutation
// network), RUNAHEAD (single-cycle, drop + source retransmission) and
// SB with one domain (wave-constrained deflection) — across offered
// loads.  This extends the paper's related-work discussion with
// measurements: CHIPPER trades tail latency for the cheapest deflecting
// router, RUNAHEAD wins uncontended latency but collapses under load,
// SB pays the wave constraint.
func ExtensionBufferless(sc Scale) ([]BufferlessRow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	type point struct {
		model config.Model
		rate  float64
	}
	var points []point
	for _, model := range []config.Model{config.BLESS, config.CHIPPER, config.RUNAHEAD, config.SB} {
		for _, rate := range []float64{0.05, 0.15, 0.25} {
			points = append(points, point{model, rate})
		}
	}
	return runPoints(points, func(p point) (BufferlessRow, error) {
		cfg := config.Default(p.model)
		out, err := runSim(sim.Options{
			Cfg:     cfg,
			Pattern: traffic.UniformRandom,
			Sources: traffic.EvenSplit(p.rate, 1),
			Warmup:  sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
			Seed: sc.Seed,
		})
		if err != nil {
			return BufferlessRow{}, fmt.Errorf("bufferless %v rate %.2f: %w", p.model, p.rate, err)
		}
		return BufferlessRow{
			Model:       p.model,
			Rate:        p.rate,
			MeanLatency: out.Total.AvgTotalLatency(),
			P99Latency:  out.LatencyP99[0],
			Deflections: out.Total.AvgDeflections(),
			StaticW:     power.RouterStaticPower(cfg, power.Default45nm()),
		}, nil
	})
}

// BufferlessTable renders the bufferless comparison.
func BufferlessTable(rows []BufferlessRow) *textplot.Table {
	t := textplot.NewTable("Extension: bufferless routers compared (BLESS / CHIPPER / RUNAHEAD / SB, 1 domain)",
		"model", "rate", "mean_latency", "p99_latency≤", "deflections/pkt", "router_static_mW")
	for _, r := range rows {
		t.Row(r.Model.String(), textplot.F(r.Rate), textplot.F(r.MeanLatency),
			fmt.Sprintf("%d", r.P99Latency), textplot.F(r.Deflections),
			textplot.F(r.StaticW*1e3))
	}
	return t
}

// PatternRow is one traffic-pattern confinement check.
type PatternRow struct {
	Pattern      traffic.Pattern
	VictimDrift  float64 // |victim latency with - without interference|
	BLESSDriftPc float64 // BLESS victim latency increase, percent
}

// ExtensionPatterns verifies SB's confinement beyond uniform-random
// traffic: for every synthetic pattern, the victim domain's latency is
// bit-identical with and without interference, while BLESS drifts.
func ExtensionPatterns(sc Scale) ([]PatternRow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	type point struct {
		model        config.Model
		pattern      traffic.Pattern
		interference float64
	}
	patterns := []traffic.Pattern{traffic.UniformRandom, traffic.Transpose, traffic.BitComplement, traffic.Hotspot}
	var points []point
	for _, p := range patterns {
		for _, model := range []config.Model{config.SB, config.BLESS} {
			points = append(points, point{model, p, 0}, point{model, p, 0.2})
		}
	}
	lats, err := runPoints(points, func(p point) (float64, error) {
		out, err := runSim(twoDomainOptions(sc, p.model, p.pattern, 0.04, p.interference))
		if err != nil {
			return 0, fmt.Errorf("patterns %v: %w", p.pattern, err)
		}
		return out.Domains[0].AvgTotalLatency(), nil
	})
	if err != nil {
		return nil, err
	}
	var rows []PatternRow
	for i, p := range patterns {
		sbQuiet, sbLoud, blQuiet, blLoud := lats[4*i], lats[4*i+1], lats[4*i+2], lats[4*i+3]
		drift := sbLoud - sbQuiet
		if drift < 0 {
			drift = -drift
		}
		rows = append(rows, PatternRow{
			Pattern:      p,
			VictimDrift:  drift,
			BLESSDriftPc: (blLoud/blQuiet - 1) * 100,
		})
	}
	return rows, nil
}

// PatternTable renders the pattern confinement check.
func PatternTable(rows []PatternRow) *textplot.Table {
	t := textplot.NewTable("Extension: SB confinement across traffic patterns (victim 0.04, interference 0.2)",
		"pattern", "SB_victim_latency_drift", "BLESS_victim_latency_drift_%")
	for _, r := range rows {
		t.Row(r.Pattern.String(), textplot.F(r.VictimDrift), textplot.F(r.BLESSDriftPc))
	}
	return t
}
