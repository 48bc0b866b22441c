// Energysweep: the Fig-6 scenario in miniature — how NoC energy scales
// with the number of interference domains.  Surf pays for one VC
// complement per domain at every input port of every router; Surf-Bless
// buffers only at injection, so its energy stays nearly flat.
package main

import (
	"fmt"
	"log"

	"surfbless"
	"surfbless/internal/traffic"
)

const cycles = 50_000

func run(model surfbless.Model, domains int) surfbless.Energy {
	cfg := surfbless.DefaultConfig(model)
	cfg.Domains = domains
	if model == surfbless.Surf || model == surfbless.SB {
		// §5.1.2: each domain owns one 4-flit VC.
		cfg.CtrlVCsPerPort, cfg.CtrlVCDepth = 0, 0
		cfg.DataVCsPerPort, cfg.DataVCDepth = 1, 4
		cfg.InjectionVCDepth = 4
	}
	res, err := surfbless.RunSynthetic(surfbless.SimOptions{
		Cfg:     cfg,
		Pattern: surfbless.UniformRandom,
		Sources: traffic.EvenSplit(0.05, domains),
		Measure: cycles,
		Seed:    1,
	})
	if err != nil {
		log.Fatal(err)
	}
	return res.Energy
}

func main() {
	fmt.Printf("NoC energy (mJ) over %d cycles at 0.05 pkts/node/cycle\n\n", cycles)
	fmt.Printf("%-10s %12s %12s %12s %12s\n", "domains", "Surf total", "SB total", "Surf static", "SB static")
	for d := 1; d <= 9; d++ {
		surf := run(surfbless.Surf, d)
		sb := run(surfbless.SB, d)
		fmt.Printf("%-10d %12.4f %12.4f %12.4f %12.4f\n",
			d, surf.Total()*1e3, sb.Total()*1e3, surf.RouterStatic*1e3, sb.RouterStatic*1e3)
	}
	wh := run(surfbless.WH, 1)
	bless := run(surfbless.BLESS, 1)
	fmt.Printf("\nbaselines: WH %.4f mJ, BLESS %.4f mJ\n", wh.Total()*1e3, bless.Total()*1e3)
	fmt.Println("\nSurf grows with every added domain (5 buffered ports × D VCs);")
	fmt.Println("Surf-Bless adds only one injection VC per domain per router.")
}
