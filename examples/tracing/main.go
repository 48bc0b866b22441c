// Tracing: tap a simulation's event stream with a packet-lifecycle
// trace writer, a span exporter, an interval series and a custom
// latency tap, analyze one packet's journey and sketch the run's time
// series — useful for understanding how waves, deflections and the
// old-first policy interact.  The trace is CSV; pipe it into your
// favourite tooling.  Everything stays in memory: the example leaves
// no file behind.
package main

import (
	"bytes"
	"fmt"
	"log"
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
// and the ejection cycle.  Arm sizes it for the run's domains and
// reports that it reads no router events.
type latencies struct{ hist []stats.Histogram }

func (l *latencies) Arm(cfg probe.Config) bool {
	l.hist = make([]stats.Histogram, cfg.Domains)
	return false
}

func (l *latencies) Consume(batch []probe.Event) {
	for _, e := range batch {
		if e.Kind == probe.KindEjected {
			l.hist[e.Domain].Add(e.Cycle - e.Created)
		}
	}
}

func main() {
	cfg := config.Default(config.SB)
	cfg.Domains = 4 // a misaligned domain count: deflections will show

	// Every observer taps the run's one event stream.  The trace writer
	// logs each packet lifecycle event as a CSV line.
	var buf strings.Builder
	tw := trace.New(&buf)

	// A Chrome-trace exporter taps the same stream: every hop and
	// packet life becomes a timeline slice loadable in
	// https://ui.perfetto.dev (one simulated cycle = 1 µs of trace time).
	var spans bytes.Buffer
	pf := trace.NewPerfetto(&spans)
	lat := &latencies{}

	// A series folds the same events into 200-cycle intervals instead
	// of logging them line by line, plus spatial heatmaps.
	series := probe.NewSeries(200)
	sources := make([]traffic.Source, cfg.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: 0.02, Class: packet.Ctrl, VNet: -1}
	}
	res, err := sim.Run(sim.Options{
		Cfg: cfg, Pattern: traffic.UniformRandom, Sources: sources, Seed: 7,
		Measure: 2000, Drain: 1 << 20,
		Taps: []probe.Tap{tw, pf, series, lat},
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
	fmt.Printf("chrome trace: %d spans, %d bytes (save them to a file and load it at https://ui.perfetto.dev)\n\n", pf.Events(), spans.Len())
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
	for d := range lat.hist {
		fmt.Printf("domain %d latency: %v\n", d, &lat.hist[d])
	}

	// The series' sparkline digest: injections, ejections, latency and
	// occupancy per 200-cycle interval, one block per domain.
	fmt.Println()
	fmt.Println(series.Summary())
}
