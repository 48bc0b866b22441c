package experiments

import (
	"errors"
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/sim"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
)

// faultVictimRate / faultAggressorRate mirror the Fig. 5 setup: a
// lightly loaded victim domain observed while a second domain floods
// the mesh — here with a fault scenario layered on top, to ask whether
// confinement survives hardware failures.
const (
	faultVictimRate    = 0.05
	faultAggressorRate = 0.20
)

// faultEpicenter is the router the scenarios damage: a central node of
// the 8×8 mesh ((3,3) = 27), so every model routes traffic through it.
const faultEpicenter = 27

// FaultScenario is one named fault plan applied to every model.
type FaultScenario struct {
	Name string
	Plan *fault.Plan
}

// FaultScenarios returns the sweep of ISSUE scenarios: the fault-free
// baseline, a permanent link kill, a flapping link, a transient router
// freeze and a lossy link.  All target the same central epicenter so
// the rows are comparable.
func FaultScenarios() []FaultScenario {
	east := int(1) // geom.East
	return []FaultScenario{
		{Name: "none", Plan: nil},
		{Name: "link-kill", Plan: &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.LinkKill, Node: faultEpicenter, Dir: east, At: 0},
		}}},
		{Name: "link-flap", Plan: &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.LinkFlap, Node: faultEpicenter, Dir: east, At: 0, Repair: 200, Period: 1000},
		}}},
		{Name: "router-freeze", Plan: &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.RouterFreeze, Node: faultEpicenter, At: 0, Repair: 300, Period: 1000},
		}}},
		{Name: "packet-drop", Plan: &fault.Plan{Seed: 11, Events: []fault.Event{
			{Kind: fault.PacketDrop, Node: faultEpicenter, Dir: east, At: 0, Prob: 0.05},
		}}},
	}
}

// FaultsRow is one (model, scenario) cell of the experiment.
type FaultsRow struct {
	Model    string
	Scenario string

	VictimLatency    float64 // victim domain avg total latency, cycles
	VictimThroughput float64 // victim accepted pkts/node/cycle

	Dropped      int64 // packets lost after exhausting retries (all domains)
	Retransmits  int64 // source retransmissions (all domains)
	LeftInFlight int   // packets stranded when the run ended

	// Status is "ok" for a healthy run or "degraded: <reason>" when
	// the watchdog cut the run short / a fabric invariant was
	// recovered; degraded rows still carry the partial statistics.
	Status string
}

// FaultsResult holds the confinement-under-faults experiment.
type FaultsResult struct {
	Rows []FaultsRow
}

// ConfinementUnderFaults runs the robustness experiment: the Fig. 5
// victim/aggressor setup on WH, BLESS and SB, crossed with
// FaultScenarios.  Degraded points (a wormhole mesh wedged by a
// permanent link kill, say) become rows labelled degraded instead of
// failing the whole experiment — that is the subsystem's point.
func ConfinementUnderFaults(sc Scale) (FaultsResult, error) {
	if err := sc.Validate(); err != nil {
		return FaultsResult{}, err
	}
	models := []config.Model{config.WH, config.BLESS, config.SB}
	scenarios := FaultScenarios()
	type point struct {
		model    config.Model
		scenario FaultScenario
	}
	var points []point
	for _, m := range models {
		for _, s := range scenarios {
			points = append(points, point{m, s})
		}
	}
	rows, err := runPoints(points, func(p point) (FaultsRow, error) {
		o := twoDomainOptions(sc, p.model, traffic.UniformRandom, faultVictimRate, faultAggressorRate)
		o.Cfg.Faults = p.scenario.Plan
		// Scale the no-progress ceiling to the drain budget so a wedged
		// mesh degrades within this run's own time frame (the auto
		// default is tuned for full-length runs).
		o.WatchdogNoProgress = sc.Drain / 4
		out, err := runSim(o)
		row := FaultsRow{Model: p.model.String(), Scenario: p.scenario.Name, Status: "ok"}
		if err != nil {
			var de *sim.DegradedError
			if !errors.As(err, &de) {
				return row, fmt.Errorf("faults %v/%s: %w", p.model, p.scenario.Name, err)
			}
			out = de.Partial
			row.Status = "degraded: " + de.Reason
		}
		row.VictimLatency = out.Domains[0].AvgTotalLatency()
		row.VictimThroughput = out.Throughput(0)
		row.Dropped = out.Total.Dropped
		row.Retransmits = out.Total.Retransmits
		row.LeftInFlight = out.LeftInFlight
		return row, nil
	})
	if err != nil {
		return FaultsResult{}, err
	}
	return FaultsResult{Rows: rows}, nil
}

// Tables renders the experiment as one table per metric pair.
func (r FaultsResult) Tables() []*textplot.Table {
	t := textplot.NewTable("Confinement under faults: victim D0 at 0.05, aggressor D1 at 0.20, faults at node 27",
		"model", "scenario", "victim_lat", "victim_thr", "dropped", "retransmits", "stuck", "status")
	for _, row := range r.Rows {
		t.Row(row.Model, row.Scenario,
			textplot.F(row.VictimLatency), textplot.F(row.VictimThroughput),
			fmt.Sprint(row.Dropped), fmt.Sprint(row.Retransmits),
			fmt.Sprint(row.LeftInFlight), row.Status)
	}
	return []*textplot.Table{t}
}
