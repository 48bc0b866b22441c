package experiments

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/textplot"
	"surfbless/internal/traffic"
	"surfbless/internal/wcta/conformance"
)

// WCTARow aggregates one (model, mesh, scenario) conformance cell over
// its seeds.
type WCTARow struct {
	Model    config.Model
	Mesh     int // square mesh edge
	Scenario string
	Seeds    int
	Flows    int   // analyzed flows per run
	Ejected  int64 // packets delivered across all seeds
	// WorstBound and WorstObserved are the largest analytical bound and
	// the largest observed p100 network latency across all flows/seeds.
	WorstBound    int64
	WorstObserved int64
	// MaxRatio is the empirical tightness: the largest observed/bound
	// ratio any single flow achieved (1.0 = a packet hit its bound).
	MaxRatio   float64
	Violations int
}

// wctaScenario is one adversarial traffic shape.  Only deterministic
// patterns qualify — the oracle must enumerate the exact flow set.
type wctaScenario struct {
	name    string
	pattern traffic.Pattern
	sources func(domains int) []traffic.Source
	// tight marks the zero-contention scenarios whose observation must
	// come within wctaTightness of the bound on fabrics with exact
	// zero-load analysis (WH, SB): they certify the bound is not just
	// sound but usefully close.
	tight bool
}

// wctaTightness is the observed/bound floor the tightness scenarios
// must reach — a bound more than 25% above anything observable would
// pass soundness while being analytically sloppy.
const wctaTightness = 0.8

func wctaScenarios() []wctaScenario {
	ctrl := func(rate float64, burst int, onoff bool) traffic.Source {
		return traffic.Source{Rate: rate, Class: packet.Ctrl, VNet: -1, Burst: burst, OnOff: onoff}
	}
	return []wctaScenario{
		{
			// Lone corner-to-corner flow, everything else silent: the
			// longest uncontended path, so observed latency must equal
			// the zero-load bound exactly on WH and SB.
			name: "corner-quiet", pattern: traffic.Corner, tight: true,
			sources: func(domains int) []traffic.Source {
				ss := make([]traffic.Source, domains)
				ss[0] = ctrl(5e-4, 1, false)
				return ss
			},
		},
		{
			// Every domain injects the corner flow: the victim's full
			// path is crossed by foreign-domain traffic on the same
			// links.
			name: "corner-duel", pattern: traffic.Corner,
			sources: func(domains int) []traffic.Source {
				ss := make([]traffic.Source, domains)
				for d := range ss {
					ss[d] = ctrl(5e-4, 1, false)
				}
				return ss
			},
		},
		{
			// All aggressors on: every off-diagonal node streams
			// steadily in both domains.
			name: "transpose-steady", pattern: traffic.Transpose,
			sources: func(domains int) []traffic.Source {
				ss := make([]traffic.Source, domains)
				for d := range ss {
					ss[d] = ctrl(2e-4, 1, false)
				}
				return ss
			},
		},
		{
			// Bursty on/off sources: greedy token buckets fire 3
			// back-to-back packets from every node at once, all routes
			// crossing the mesh centre.
			name: "bitcomp-onoff", pattern: traffic.BitComplement,
			sources: func(domains int) []traffic.Source {
				ss := make([]traffic.Source, domains)
				for d := range ss {
					ss[d] = ctrl(1e-4, 3, true)
				}
				return ss
			},
		},
	}
}

// WCTAConformance cross-validates the analytical worst-case bounds
// (internal/wcta) against the simulator: for the three bounded fabrics
// × three mesh sizes × four adversarial scenarios × five seeds it
// asserts that no delivered packet exceeded its flow's bound, and that
// the tightness scenarios observe at least wctaTightness of it.
func WCTAConformance(sc Scale) ([]WCTARow, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	models := []config.Model{config.WH, config.Surf, config.SB}
	meshes := []int{4, 6, 8}
	scenarios := wctaScenarios()
	const seeds = 5
	addTotal(len(models) * len(meshes) * len(scenarios) * seeds)

	var rows []WCTARow
	for _, model := range models {
		for _, mesh := range meshes {
			for _, scn := range scenarios {
				row := WCTARow{Model: model, Mesh: mesh, Scenario: scn.name, Seeds: seeds}
				for seed := int64(1); seed <= seeds; seed++ {
					cfg := config.Default(model)
					cfg.Width, cfg.Height = mesh, mesh
					cfg.Domains = 2
					// With a flight directory configured, every check runs
					// with a recorder so a violation leaves a forensic dump
					// instead of just a one-line error.
					var rec *probe.FlightRecorder
					if flightDir() != "" {
						rec = probe.NewFlightRecorder(0)
					}
					rep, err := conformance.Run(conformance.Check{
						Cfg:      cfg,
						Pattern:  scn.pattern,
						Sources:  scn.sources(cfg.Domains),
						Measure:  sc.Measure,
						Drain:    sc.Drain,
						Seed:     seed,
						Recorder: rec,
					})
					pointDone()
					if err != nil {
						return nil, fmt.Errorf("wcta %v %dx%d %s seed %d: %w", model, mesh, mesh, scn.name, seed, err)
					}
					row.Flows = len(rep.Flows)
					row.Ejected += rep.Ejected
					row.Violations += len(rep.Violations())
					for _, f := range rep.Flows {
						if f.Bound.Cycles > row.WorstBound {
							row.WorstBound = f.Bound.Cycles
						}
						if f.Observed > row.WorstObserved {
							row.WorstObserved = f.Observed
						}
					}
					if _, ratio := rep.MaxRatio(); ratio > row.MaxRatio {
						row.MaxRatio = ratio
					}
					if verr := rep.Err(); verr != nil {
						wrapped := fmt.Errorf("wcta %v %dx%d %s seed %d: %w", model, mesh, mesh, scn.name, seed, verr)
						base := fmt.Sprintf("wcta_%v_%dx%d_%s_s%d", model, mesh, mesh, scn.name, seed)
						if path, werr := writeFlightDump(rep.Flight, base); werr == nil && path != "" {
							return nil, fmt.Errorf("%w (flight dump: %s)", wrapped, path)
						}
						return nil, wrapped
					}
				}
				// Surf's gating term is a worst-phase bound the injection
				// process rarely hits on every hop, so only the exact
				// zero-load analyses owe tightness.
				if scn.tight && model != config.Surf && row.MaxRatio < wctaTightness {
					return nil, fmt.Errorf("wcta %v %dx%d %s: bound is slack — best observation reached only %.0f%% of it (want ≥ %.0f%%)",
						model, mesh, mesh, scn.name, row.MaxRatio*100, wctaTightness*100)
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// WCTATable renders the conformance matrix.
func WCTATable(rows []WCTARow) *textplot.Table {
	t := textplot.NewTable("WCTA conformance: observed p100 network latency vs analytical bound",
		"model", "mesh", "scenario", "flows", "ejected", "worst_bound", "worst_p100", "max_ratio", "violations")
	for _, r := range rows {
		t.Row(r.Model.String(), fmt.Sprintf("%dx%d", r.Mesh, r.Mesh), r.Scenario,
			fmt.Sprintf("%d", r.Flows), fmt.Sprintf("%d", r.Ejected),
			fmt.Sprintf("%d", r.WorstBound), fmt.Sprintf("%d", r.WorstObserved),
			textplot.F(r.MaxRatio), fmt.Sprintf("%d", r.Violations))
	}
	return t
}
