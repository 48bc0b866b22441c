// Command surfbless runs one synthetic-traffic NoC simulation and
// prints the per-domain statistics and the energy report.
//
// Usage:
//
//	surfbless [-model SB] [-domains 2] [-rate 0.05] [-pattern uniform]
//	          [-cycles 20000] [-warmup 1000] [-seed 1] [-size 8]
//
// The offered load (-rate, packets/node/cycle) is split evenly across
// the domains, as in the paper's §5.1 experiments.
package main

import (
	"flag"
	"fmt"
	"os"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/sim"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
)

func main() {
	model := flag.String("model", "SB", "network model: WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD (any case)")
	domains := flag.Int("domains", 2, "number of interference domains")
	rate := flag.Float64("rate", 0.05, "total injection rate (packets/node/cycle)")
	pattern := flag.String("pattern", "uniform", "traffic pattern: uniform, transpose, bitcomp, hotspot")
	cycles := flag.Int64("cycles", 20000, "measured cycles")
	warmup := flag.Int64("warmup", 1000, "warm-up cycles")
	seed := flag.Int64("seed", 1, "random seed")
	size := flag.Int("size", 8, "mesh dimension (N for an N×N mesh)")
	cfgPath := flag.String("config", "", "JSON configuration file (overrides -model/-domains/-size)")
	flag.Parse()

	p, err := patternByName(*pattern)
	if err != nil {
		fatal(err)
	}
	var cfg config.Config
	if *cfgPath != "" {
		if cfg, err = config.Load(*cfgPath); err != nil {
			fatal(err)
		}
		*domains = cfg.Domains
	} else {
		m, err := config.ParseModel(*model)
		if err != nil {
			fatal(err)
		}
		cfg = config.Default(m)
		cfg.Domains = *domains
		cfg.Width, cfg.Height = *size, *size
	}
	m := cfg.Model

	sources := make([]traffic.Source, *domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: *rate / float64(*domains), Class: packet.Ctrl, VNet: -1}
	}
	res, err := sim.Run(sim.Options{
		Cfg:     cfg,
		Pattern: p,
		Sources: sources,
		Warmup:  *warmup, Measure: *cycles, Drain: 20 * *cycles,
		Seed: *seed,
	})
	if err != nil {
		fatal(err)
	}

	t := textplot.NewTable(
		fmt.Sprintf("%v, %dx%d mesh, %d domain(s), %s traffic at %.3f pkts/node/cycle",
			m, cfg.Width, cfg.Height, *domains, p, *rate),
		"domain", "ejected", "avg_latency", "queue", "network", "hops", "deflections", "throughput")
	for d, dom := range res.Domains {
		t.Row(fmt.Sprintf("D%d", d),
			fmt.Sprintf("%d", dom.Ejected),
			textplot.F(dom.AvgTotalLatency()),
			textplot.F(dom.AvgQueueLatency()),
			textplot.F(dom.AvgNetworkLatency()),
			textplot.F(dom.AvgHops()),
			textplot.F(dom.AvgDeflections()),
			textplot.F(res.Throughput(d)))
	}
	tot := res.Total
	t.Row("total",
		fmt.Sprintf("%d", tot.Ejected),
		textplot.F(tot.AvgTotalLatency()),
		textplot.F(tot.AvgQueueLatency()),
		textplot.F(tot.AvgNetworkLatency()),
		textplot.F(tot.AvgHops()),
		textplot.F(tot.AvgDeflections()),
		"-")
	fmt.Println(t.String())
	fmt.Printf("energy over %d cycles: %v\n", res.Cycles, res.Energy)
	if res.LeftInFlight > 0 {
		fmt.Printf("warning: %d packets still in flight after the drain budget (saturated?)\n", res.LeftInFlight)
	}
}

func patternByName(s string) (traffic.Pattern, error) {
	switch s {
	case "uniform":
		return traffic.UniformRandom, nil
	case "transpose":
		return traffic.Transpose, nil
	case "bitcomp":
		return traffic.BitComplement, nil
	case "hotspot":
		return traffic.Hotspot, nil
	default:
		return 0, fmt.Errorf("unknown pattern %q", s)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "surfbless:", err)
	os.Exit(1)
}
