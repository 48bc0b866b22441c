// Tracing: attach a packet-lifecycle trace writer and an interval
// probe to a simulation, analyze one packet's journey and sketch the
// run's time series — useful for understanding how waves, deflections
// and the old-first policy interact.  The trace is CSV; pipe it into
// your favourite tooling.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/trace"
	"surfbless/internal/traffic"
)

func main() {
	cfg := config.Default(config.SB)
	cfg.Domains = 4 // a misaligned domain count: deflections will show

	col := stats.NewCollector(cfg.Domains, 0, 0)
	var buf strings.Builder
	tw := trace.New(&buf)
	col.SetTracer(tw.Tracer())

	// A probe rides along with the tracer: same lifecycle events,
	// bucketed into 200-cycle intervals instead of logged line by line.
	p := &probe.Probe{}
	p.Arm(probe.Config{Mesh: cfg.Mesh(), Domains: cfg.Domains, Every: 200, WarmupEnd: 0, MeasureEnd: 2000})
	col.SetProbe(p)

	// A Chrome-trace exporter taps the same event stream: every hop and
	// packet life becomes a timeline slice loadable in
	// https://ui.perfetto.dev (one simulated cycle = 1 µs of trace time).
	spans, err := os.CreateTemp("", "surfbless_spans_*.json")
	if err != nil {
		log.Fatal(err)
	}
	pf := trace.NewPerfetto(spans, cfg.Mesh())
	p.AttachTap(pf)

	meter := power.NewMeter(cfg, power.Default45nm())
	fab, err := sim.BuildFabric(cfg, nil, nil, col, meter)
	if err != nil {
		log.Fatal(err)
	}
	fab.SetProbe(p) // spatial heatmaps too
	sources := make([]traffic.Source, cfg.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: 0.02, Class: packet.Ctrl, VNet: -1}
	}
	gen := traffic.New(cfg.Mesh(), traffic.UniformRandom, sources, 7)

	now := int64(0)
	for ; now < 2000; now++ {
		gen.Tick(fab, now)
		fab.Step(now)
		p.Tick(now, fab.InFlight())
	}
	for ; fab.InFlight() > 0; now++ {
		fab.Step(now)
		p.Tick(now, fab.InFlight())
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	p.Flush() // drain the event ring into the tap before closing it
	if err := pf.Close(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("traced %d events over %d cycles\n\n", tw.Events(), now)
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

	// Per-domain tail latency from the built-in histograms.
	fmt.Println()
	for d := 0; d < cfg.Domains; d++ {
		fmt.Printf("domain %d latency: %v\n", d, col.Latency(d))
	}

	// The probe's sparkline digest: injections, ejections, latency and
	// occupancy per 200-cycle interval, one block per domain.
	fmt.Println()
	fmt.Println(p.Summary())
	_ = os.Stdout
}
