// Tracing: tap a simulation's event stream with a packet-lifecycle
// trace writer, a span exporter and a custom latency tap, analyze one
// packet's journey and sketch the run's time series from an interval
// probe — useful for understanding how waves, deflections and the
// old-first policy interact.  The trace is CSV; pipe it into your
// favourite tooling.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/trace"
	"surfbless/internal/traffic"
)

// latencies is a custom tap: it rebuilds each domain's total-latency
// histogram from the ejection events, which carry both the creation
// and the ejection cycle.
type latencies []stats.Histogram

func (l latencies) Consume(batch []probe.Event) {
	for _, e := range batch {
		if e.Kind == probe.KindEjected {
			l[e.Domain].Add(e.Cycle - e.Created)
		}
	}
}

func main() {
	cfg := config.Default(config.SB)
	cfg.Domains = 4 // a misaligned domain count: deflections will show

	// Every observer taps the run's one event stream.  The trace writer
	// logs each packet lifecycle event as a CSV line.
	var buf strings.Builder
	tw := trace.New(&buf, cfg.Mesh())

	// A Chrome-trace exporter taps the same stream: every hop and
	// packet life becomes a timeline slice loadable in
	// https://ui.perfetto.dev (one simulated cycle = 1 µs of trace time).
	spans, err := os.CreateTemp("", "surfbless_spans_*.json")
	if err != nil {
		log.Fatal(err)
	}
	pf := trace.NewPerfetto(spans, cfg.Mesh())
	lat := make(latencies, cfg.Domains)

	// The probe folds the same events into 200-cycle intervals instead
	// of logging them line by line, plus spatial heatmaps.
	p := &probe.Probe{}
	sources := make([]traffic.Source, cfg.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: 0.02, Class: packet.Ctrl, VNet: -1}
	}
	res, err := sim.Run(sim.Options{
		Cfg: cfg, Pattern: traffic.UniformRandom, Sources: sources, Seed: 7,
		Measure: 2000, Drain: 1 << 20,
		Probe: p, ProbeEvery: 200,
		Taps: []probe.Tap{tw, pf, lat},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("traced %d events over %d cycles\n\n", tw.Events(), res.Cycles)
	fmt.Printf("chrome trace: %d spans in %s (load at https://ui.perfetto.dev)\n\n", pf.Events(), spans.Name())
	fmt.Println(trace.Header())
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, l := range lines[:10] {
		fmt.Println(l)
	}
	fmt.Println("…")

	// Find the most-deflected packet of the run.
	worst, worstDefl := "", -1
	for _, l := range lines {
		f := strings.Split(l, ",")
		if f[1] != "ejected" {
			continue
		}
		var d int
		fmt.Sscanf(f[7], "%d", &d)
		if d > worstDefl {
			worstDefl, worst = d, l
		}
	}
	fmt.Printf("\nmost-deflected packet: %s\n", worst)
	fmt.Printf("(%d deflections — an ejection-miss victim bouncing to a wave turn row)\n", worstDefl)

	// Per-domain tail latency from the latency tap's histograms.
	fmt.Println()
	for d := range lat {
		fmt.Printf("domain %d latency: %v\n", d, &lat[d])
	}

	// The probe's sparkline digest: injections, ejections, latency and
	// occupancy per 200-cycle interval, one block per domain.
	fmt.Println()
	fmt.Println(p.Summary())
}
