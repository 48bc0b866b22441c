// Command replay records a packet trace from one network model and
// replays the identical population into another, printing both runs'
// statistics side by side — apples-to-apples comparison on exactly the
// same packets instead of statistically similar ones.
//
// Usage:
//
//	replay [-record BLESS] [-play SB] [-domains 2] [-rate 0.05]
//	       [-cycles 5000] [-seed 1] [-trace FILE]
//	replay -flight FILE
//
// With -trace, the recorded CSV is also written to FILE (and can be fed
// back with -from FILE instead of recording).
//
// -flight FILE switches to forensic mode: FILE is a flight-recorder
// dump (probe.FlightDump JSON, written by whoever tapped the failed run
// with a recorder: `sweep -flight-dir` for points that degrade, the
// experiments' WCTA stage for conformance violations) and replay
// renders it as a cycle-ordered event timeline — what every router and
// NI did in the final cycles before the failure.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/trace"
	"surfbless/internal/traffic"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command behind a testable seam (mirroring
// cmd/sweep): flags in, report out, exit code back.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	record := fs.String("record", "BLESS", "model to record from: WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD, any case (ignored with -from)")
	play := fs.String("play", "SB", "model to replay into: WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD, any case")
	domains := fs.Int("domains", 2, "number of domains")
	rate := fs.Float64("rate", 0.05, "total injection rate while recording")
	cycles := fs.Int64("cycles", 5000, "recording length in cycles")
	seed := fs.Int64("seed", 1, "random seed")
	traceOut := fs.String("trace", "", "write the recorded trace CSV to this file")
	from := fs.String("from", "", "replay from an existing trace file instead of recording")
	flight := fs.String("flight", "", "render a flight-recorder dump (JSON) as an event timeline instead of replaying")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "replay:", err)
		return 1
	}

	if *flight != "" {
		f, err := os.Open(*flight)
		if err != nil {
			return fatal(err)
		}
		defer f.Close()
		d, err := probe.ReadFlightDump(f)
		if err != nil {
			return fatal(err)
		}
		printFlight(stdout, d)
		return 0
	}

	playModel, err := config.ParseModel(*play)
	if err != nil {
		return fatal(err)
	}

	var traceCSV string
	mesh := geom.NewMesh(8, 8)
	if *from != "" {
		raw, err := os.ReadFile(*from)
		if err != nil {
			return fatal(err)
		}
		traceCSV = string(raw)
		fmt.Fprintf(stdout, "replaying %s into %v\n\n", *from, playModel)
	} else {
		recModel, err := config.ParseModel(*record)
		if err != nil {
			return fatal(err)
		}
		var recStats stats.Domain
		traceCSV, recStats, err = recordRun(recModel, *domains, *rate, *cycles, *seed)
		if err != nil {
			return fatal(err)
		}
		fmt.Fprintf(stdout, "recorded %v: %d packets, avg latency %.2f\n",
			recModel, recStats.Ejected, recStats.AvgTotalLatency())
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, []byte(traceCSV), 0o644); err != nil {
				return fatal(err)
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *traceOut)
		}
	}

	playStats, err := replayRun(playModel, *domains, mesh, strings.NewReader(traceCSV), stderr)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stdout, "replayed into %v: %d packets, avg latency %.2f (queue %.2f + network %.2f), %.3f deflections/pkt\n",
		playModel, playStats.Ejected, playStats.AvgTotalLatency(),
		playStats.AvgQueueLatency(), playStats.AvgNetworkLatency(), playStats.AvgDeflections())
	return 0
}

// printFlight renders a flight dump as a forensic timeline: the run's
// header, then one line per recorded event in deterministic snapshot
// order, with cycle group separators.
func printFlight(w io.Writer, d *probe.FlightDump) {
	fmt.Fprintf(w, "flight dump: %s\n", d.Reason)
	fmt.Fprintf(w, "model %s, mesh %dx%d, %d domain(s); tripped at cycle %d, window %d cycles, %d event(s)\n",
		d.Model, d.Width, d.Height, d.Domains, d.Cycle, d.Window, len(d.Events))
	mesh := geom.NewMesh(max(d.Width, 1), max(d.Height, 1))
	lastCycle := int64(-1)
	for i := range d.Events {
		e := &d.Events[i]
		if e.Cycle != lastCycle {
			fmt.Fprintf(w, "--- cycle %d ---\n", e.Cycle)
			lastCycle = e.Cycle
		}
		fmt.Fprintf(w, "  %s\n", flightLine(mesh, e))
	}
}

// flightLine renders one event the way a human reads a timeline.
func flightLine(mesh geom.Mesh, e *probe.Event) string {
	at := func(id int32) string {
		if id < 0 || int(id) >= mesh.Nodes() {
			return "?"
		}
		c := mesh.CoordOf(int(id))
		return fmt.Sprintf("%d,%d", c.X, c.Y)
	}
	switch e.Kind {
	case probe.KindTick:
		return fmt.Sprintf("tick: %d in flight", e.Flits)
	case probe.KindRefused:
		return fmt.Sprintf("refused: dom %d NI queue full", e.Domain)
	case probe.KindLinkBusy, probe.KindDeflect:
		verb := "fwd"
		if e.Kind == probe.KindDeflect {
			verb = "DEFLECT"
		}
		return fmt.Sprintf("%s: pkt %d dom %d at %s out %v (%d flit)",
			verb, e.ID, e.Domain, at(e.Node), geom.Dir(e.Dir), e.Flits)
	default:
		s := fmt.Sprintf("%s: pkt %d dom %d %s→%s", e.Kind, e.ID, e.Domain, at(e.Src), at(e.Dst))
		if e.Kind == probe.KindEjected || e.Kind == probe.KindDropped {
			s += fmt.Sprintf(" (age %d)", e.Cycle-e.Created)
		}
		return s
	}
}

// recordRun executes a generated run with a trace writer tapping its
// event stream and returns the trace plus the run's total stats.
func recordRun(model config.Model, domains int, rate float64, cycles, seed int64) (string, stats.Domain, error) {
	cfg := config.Default(model)
	cfg.Domains = domains
	var buf strings.Builder
	tw := trace.New(&buf)
	sources := make([]traffic.Source, domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: rate / float64(domains), Class: packet.Ctrl, VNet: -1}
	}
	res, err := sim.Run(sim.Options{
		Cfg: cfg, Pattern: traffic.UniformRandom, Sources: sources, Seed: seed,
		Measure: cycles, Drain: 50 * cycles,
		Taps: []probe.Tap{tw},
	})
	if err != nil {
		return "", stats.Domain{}, err
	}
	if err := tw.Close(); err != nil {
		return "", stats.Domain{}, err
	}
	return buf.String(), res.Total, nil
}

// replayRun feeds a trace into a fresh fabric of the given model.
func replayRun(model config.Model, domains int, mesh geom.Mesh, r io.Reader, stderr io.Writer) (stats.Domain, error) {
	cfg := config.Default(model)
	cfg.Domains = domains
	rp, err := traffic.NewReplayer(r, mesh, nil)
	if err != nil {
		return stats.Domain{}, err
	}
	col := stats.NewCollector(domains, 0, 0)
	meter := power.NewMeter(cfg, power.Default45nm())
	fab, err := sim.BuildFabric(cfg, nil, nil, col, meter)
	if err != nil {
		return stats.Domain{}, err
	}
	var fabric network.Fabric = fab
	for now := int64(0); !rp.Done() || fabric.InFlight() > 0; now++ {
		rp.Tick(fabric, now, mesh)
		fabric.Step(now)
		if now > 10_000_000 {
			return stats.Domain{}, fmt.Errorf("replay never drained")
		}
	}
	if rp.Refused > 0 {
		fmt.Fprintf(stderr, "replay: %d offers refused under backpressure (dropped)\n", rp.Refused)
	}
	return col.Total(), nil
}
