package experiments

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/sim"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
)

// victimRate is the observed domain's load for the latency series of
// Fig. 5(a); saturationProbe over-offers the victim domain so that
// Fig. 5(b) measures the MAXIMAL throughput the network still provides
// to it (the paper's y-axis, which collapses for BLESS as interference
// steals capacity).
const (
	victimRate      = 0.05
	saturationProbe = 0.30
)

// Fig5Rates is the interference-load sweep of Fig. 5 (packets/node/
// cycle injected by the interfering domain).
var Fig5Rates = []float64{0, 0.04, 0.08, 0.12, 0.16, 0.2, 0.24}

// fig5Models are the networks Fig. 5 compares.
var fig5Models = []config.Model{config.BLESS, config.SB}

// Fig5Result holds the non-interference experiment's series: the victim
// domain's average packet latency and accepted throughput under rising
// interference, on BLESS and on SB.
type Fig5Result struct {
	Rates           []float64
	BLESSLatency    []float64
	SBLatency       []float64
	BLESSThroughput []float64
	SBThroughput    []float64
}

// Fig5 runs the §5.1.1 confined-interference experiment: two domains,
// the victim at 0.05 packets/node/cycle, interference swept over
// Fig5Rates; the victim's latency and throughput are recorded.
func Fig5(sc Scale) (Fig5Result, error) {
	if err := sc.Validate(); err != nil {
		return Fig5Result{}, err
	}
	type point struct {
		model                config.Model
		victim, interference float64
	}
	var points []point
	for _, model := range fig5Models {
		for _, rate := range Fig5Rates {
			// Fig 5(a): victim at a light fixed load, latency observed;
			// Fig 5(b): victim over-offered, accepted rate observed.
			points = append(points, point{model, victimRate, rate}, point{model, saturationProbe, rate})
		}
	}
	type victim struct{ latency, throughput float64 }
	outs, err := runPoints(points, func(p point) (victim, error) {
		out, err := runSim(twoDomainOptions(sc, p.model, traffic.UniformRandom, p.victim, p.interference))
		if err != nil {
			return victim{}, fmt.Errorf("fig5 %v interference %.2f: %w", p.model, p.interference, err)
		}
		return victim{out.Domains[0].AvgTotalLatency(), out.Throughput(0)}, nil
	})
	if err != nil {
		return Fig5Result{}, err
	}
	res := Fig5Result{Rates: Fig5Rates}
	for i := 0; i < len(points); i += 2 {
		lat, maxThr := outs[i].latency, outs[i+1].throughput
		if points[i].model == config.BLESS {
			res.BLESSLatency = append(res.BLESSLatency, lat)
			res.BLESSThroughput = append(res.BLESSThroughput, maxThr)
		} else {
			res.SBLatency = append(res.SBLatency, lat)
			res.SBThroughput = append(res.SBThroughput, maxThr)
		}
	}
	return res, nil
}

// twoDomainOptions is the victim/interferer run behind Fig. 5 and the
// experiments that extend it: two domains on model's default
// configuration, domain 0 (the victim) offering victim and domain 1
// offering interference packets/node/cycle under pattern.
func twoDomainOptions(sc Scale, model config.Model, pattern traffic.Pattern, victim, interference float64) sim.Options {
	cfg := config.Default(model)
	cfg.Domains = 2
	return sim.Options{
		Cfg:     cfg,
		Pattern: pattern,
		Sources: []traffic.Source{
			{Rate: victim, Class: packet.Ctrl, VNet: -1},
			{Rate: interference, Class: packet.Ctrl, VNet: -1},
		},
		Warmup: sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
		Seed: sc.Seed,
	}
}

// Tables renders Fig. 5(a) and 5(b).
func (r Fig5Result) Tables() []*textplot.Table {
	a := textplot.NewTable("Fig 5(a): victim avg packet latency (cycles) vs interference rate",
		"interference_rate", "BLESS", "SB")
	b := textplot.NewTable("Fig 5(b): victim accepted throughput (pkts/node/cycle) vs interference rate",
		"interference_rate", "BLESS", "SB")
	for i, rate := range r.Rates {
		a.Row(textplot.F(rate), textplot.F(r.BLESSLatency[i]), textplot.F(r.SBLatency[i]))
		b.Row(textplot.F(rate), textplot.F(r.BLESSThroughput[i]), textplot.F(r.SBThroughput[i]))
	}
	return []*textplot.Table{a, b}
}

// fig6Rate is the total injection rate of the §5.1.2 energy experiment.
const fig6Rate = 0.05

// Fig6Row is one bar group of Fig. 6.
type Fig6Row struct {
	Label   string // "WH", "BLESS", "Surf 3_D", "SB 3_D", …
	Domains int
	Energy  power.Energy
}

// Fig6Result holds the energy-vs-domain-count experiment.
type Fig6Result struct {
	Cycles int64
	Rows   []Fig6Row
}

// fig6Config builds the §5.1.2 configuration: every domain owns one
// 4-flit VC (Surf: per port; SB: at injection only).
func fig6Config(model config.Model, domains int) config.Config {
	cfg := config.Default(model)
	cfg.Domains = domains
	if model == config.Surf || model == config.SB {
		cfg.CtrlVCsPerPort, cfg.CtrlVCDepth = 0, 0
		cfg.DataVCsPerPort, cfg.DataVCDepth = 1, 4
		cfg.InjectionVCDepth = 4
	}
	return cfg
}

// Fig6 runs the §5.1.2 experiment: NoC energy over a fixed period at
// 0.05 packets/node/cycle, for WH and BLESS (one domain) and Surf/SB
// with 1…9 domains, split into link, router-dynamic and router-static
// energy.
func Fig6(sc Scale) (Fig6Result, error) {
	if err := sc.Validate(); err != nil {
		return Fig6Result{}, err
	}
	type point struct {
		label   string
		model   config.Model
		domains int
	}
	points := []point{{"WH", config.WH, 1}, {"BLESS", config.BLESS, 1}}
	for d := 1; d <= 9; d++ {
		points = append(points,
			point{fmt.Sprintf("Surf %d_D", d), config.Surf, d},
			point{fmt.Sprintf("SB %d_D", d), config.SB, d})
	}
	rows, err := runPoints(points, func(p point) (Fig6Row, error) {
		out, err := runSim(sim.Options{
			Cfg:     fig6Config(p.model, p.domains),
			Pattern: traffic.UniformRandom,
			Sources: traffic.EvenSplit(fig6Rate, p.domains),
			Warmup:  0, Measure: sc.EnergyCycles, Drain: 0,
			Seed: sc.Seed,
		})
		if err != nil {
			return Fig6Row{}, fmt.Errorf("fig6 %s: %w", p.label, err)
		}
		// Energy is accounted over exactly the measurement period (the
		// paper's 1 M cycles): no warmup, no drain.
		return Fig6Row{Label: p.label, Domains: p.domains, Energy: out.Energy}, nil
	})
	if err != nil {
		return Fig6Result{}, err
	}
	return Fig6Result{Cycles: sc.EnergyCycles, Rows: rows}, nil
}

// Tables renders Fig. 6.
func (r Fig6Result) Tables() []*textplot.Table {
	t := textplot.NewTable(
		fmt.Sprintf("Fig 6: NoC energy (mJ) over %d cycles at 0.05 pkts/node/cycle", r.Cycles),
		"config", "link", "router_dynamic", "router_static", "total")
	for _, row := range r.Rows {
		t.Row(row.Label,
			textplot.MJ(row.Energy.Link),
			textplot.MJ(row.Energy.RouterDynamic),
			textplot.MJ(row.Energy.RouterStatic),
			textplot.MJ(row.Energy.Total()))
	}
	return []*textplot.Table{t}
}

// Fig7Rates is the offered-load sweep of Fig. 7.
var Fig7Rates = []float64{0.01, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3}

// Fig7Series is one D_k latency curve.
type Fig7Series struct {
	Label      string
	Domains    int
	Latency    []float64 // avg packet latency per rate (delivered packets)
	Throughput []float64 // accepted packets/node/cycle per rate
}

// Fig7Result holds both subfigures: (a) BLESS (D_1) and Surf-Bless,
// (b) WH (D_1) and Surf, each across 1…9 domains and the rate sweep.
type Fig7Result struct {
	Rates []float64
	A     []Fig7Series // bufferless family
	B     []Fig7Series // VC family
}

// Fig7 runs the §5.1.3 experiment.  D_1 degenerates to the plain
// baseline of each family, as in the paper ("BLESS (D_1)", "WH (D_1)").
func Fig7(sc Scale) (Fig7Result, error) {
	return Fig7Domains(sc, []int{1, 2, 3, 4, 5, 6, 7, 8, 9})
}

// Fig7Domains runs the Fig-7 sweep for a chosen subset of domain
// counts (tests use a subset; the full harness uses 1…9).
func Fig7Domains(sc Scale, domainCounts []int) (Fig7Result, error) {
	if err := sc.Validate(); err != nil {
		return Fig7Result{}, err
	}
	type point struct {
		model   config.Model
		domains int
		rate    float64
	}
	var points []point
	for _, domains := range domainCounts {
		for _, rate := range Fig7Rates {
			points = append(points, point{bufferlessModel(domains), domains, rate})
			points = append(points, point{vcModel(domains), domains, rate})
		}
	}
	type curve struct{ latency, throughput float64 }
	outs, err := runPoints(points, func(p point) (curve, error) {
		out, err := runSim(sim.Options{
			Cfg:     fig6Config(p.model, p.domains),
			Pattern: traffic.UniformRandom,
			Sources: traffic.EvenSplit(p.rate, p.domains),
			Warmup:  sc.Warmup, Measure: sc.Measure, Drain: sc.Drain,
			Seed: sc.Seed,
		})
		if err != nil {
			return curve{}, fmt.Errorf("fig7 %v D_%d rate %.2f: %w", p.model, p.domains, p.rate, err)
		}
		c := curve{latency: out.Total.AvgTotalLatency()}
		for d := 0; d < p.domains; d++ {
			c.throughput += out.Throughput(d)
		}
		return c, nil
	})
	if err != nil {
		return Fig7Result{}, err
	}
	res := Fig7Result{Rates: Fig7Rates}
	idx := 0
	for _, domains := range domainCounts {
		a := Fig7Series{Label: fmt.Sprintf("%v D_%d", bufferlessModel(domains), domains), Domains: domains}
		b := Fig7Series{Label: fmt.Sprintf("%v D_%d", vcModel(domains), domains), Domains: domains}
		for range Fig7Rates {
			a.Latency = append(a.Latency, outs[idx].latency)
			a.Throughput = append(a.Throughput, outs[idx].throughput)
			idx++
			b.Latency = append(b.Latency, outs[idx].latency)
			b.Throughput = append(b.Throughput, outs[idx].throughput)
			idx++
		}
		res.A = append(res.A, a)
		res.B = append(res.B, b)
	}
	return res, nil
}

func bufferlessModel(domains int) config.Model {
	if domains == 1 {
		return config.BLESS
	}
	return config.SB
}

func vcModel(domains int) config.Model {
	if domains == 1 {
		return config.WH
	}
	return config.Surf
}

// Tables renders Fig. 7(a) and 7(b) as rate × D_k latency grids, plus
// accepted-throughput grids (the paper reads saturation off the same
// curves).
func (r Fig7Result) Tables() []*textplot.Table {
	mk := func(title string, series []Fig7Series, value func(Fig7Series, int) float64) *textplot.Table {
		cols := []string{"rate"}
		for _, s := range series {
			cols = append(cols, fmt.Sprintf("D_%d", s.Domains))
		}
		t := textplot.NewTable(title, cols...)
		for i, rate := range r.Rates {
			cells := []string{textplot.F(rate)}
			for _, s := range series {
				cells = append(cells, textplot.F(value(s, i)))
			}
			t.Row(cells...)
		}
		return t
	}
	lat := func(s Fig7Series, i int) float64 { return s.Latency[i] }
	thr := func(s Fig7Series, i int) float64 { return s.Throughput[i] }
	return []*textplot.Table{
		mk("Fig 7(a): avg packet latency (cycles), BLESS (D_1) and Surf-Bless", r.A, lat),
		mk("Fig 7(a) aux: accepted throughput (pkts/node/cycle)", r.A, thr),
		mk("Fig 7(b): avg packet latency (cycles), WH (D_1) and Surf", r.B, lat),
		mk("Fig 7(b) aux: accepted throughput (pkts/node/cycle)", r.B, thr),
	}
}
