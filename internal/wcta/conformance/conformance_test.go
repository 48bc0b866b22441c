package conformance

import (
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/traffic"
)

func ctrlSources(domains int, rate float64, burst int, onoff bool) []traffic.Source {
	ss := make([]traffic.Source, domains)
	for d := range ss {
		ss[d] = traffic.Source{Rate: rate, Class: packet.Ctrl, VNet: -1, Burst: burst, OnOff: onoff}
	}
	return ss
}

// The oracle end to end on a 4×4 mesh: for each bounded fabric and a
// deterministic adversarial pattern, every delivered packet's network
// latency must respect its flow's analytical bound.
func TestConformanceSmoke(t *testing.T) {
	for _, model := range []config.Model{config.WH, config.Surf, config.SB} {
		for _, pattern := range []traffic.Pattern{traffic.Corner, traffic.Transpose, traffic.BitComplement} {
			cfg := config.Default(model)
			cfg.Width, cfg.Height = 4, 4
			cfg.Domains = 2
			rep, err := Run(Check{
				Cfg:     cfg,
				Pattern: pattern,
				Sources: ctrlSources(2, 2e-4, 1, false),
				Measure: 1500,
				Drain:   20000,
				Seed:    1,
			})
			if err != nil {
				t.Fatalf("%v/%v: %v", model, pattern, err)
			}
			if err := rep.Err(); err != nil {
				t.Errorf("%v/%v: %v", model, pattern, err)
			}
			if len(rep.Flows) == 0 {
				t.Errorf("%v/%v: no flows analyzed", model, pattern)
			}
		}
	}
}

// The tightness anchor: a lone corner flow on SB observes exactly its
// bound (P·H with the round-robin domain count dividing 2P), so the
// max ratio is 1.0 — the strongest possible evidence the analysis is
// not just sound but exact.
func TestConformanceTightCorner(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Width, cfg.Height = 4, 4
	cfg.Domains = 2
	sources := ctrlSources(2, 5e-3, 1, false)
	sources[1].Rate = 0
	rep, err := Run(Check{
		Cfg:     cfg,
		Pattern: traffic.Corner,
		Sources: sources,
		Measure: 1500,
		Drain:   20000,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Ejected == 0 {
		t.Fatal("corner flow delivered nothing; raise the rate or budget")
	}
	if _, ratio := rep.MaxRatio(); ratio != 1.0 {
		t.Errorf("lone SB corner flow observed %.3f of its bound, want exactly 1.0", ratio)
	}
}

// Bursty greedy sources are the adversarial end: every node fires its
// full token bucket back to back at cycle 0.
func TestConformanceOnOffBurst(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Width, cfg.Height = 4, 4
	cfg.Domains = 2
	rep, err := Run(Check{
		Cfg:     cfg,
		Pattern: traffic.BitComplement,
		Sources: ctrlSources(2, 1e-4, 3, true),
		Measure: 1500,
		Drain:   30000,
		Seed:    3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Ejected < int64(len(rep.Flows)) {
		t.Errorf("only %d packets delivered across %d flows; the burst should fire immediately", rep.Ejected, len(rep.Flows))
	}
}

func TestFlowsRejectsUnregulated(t *testing.T) {
	_, err := Flows(geom.NewMesh(4, 4), traffic.Transpose, []traffic.Source{{Rate: 0.1}})
	if err == nil || !strings.Contains(err.Error(), "unregulated") {
		t.Errorf("Burst 0 source accepted: %v", err)
	}
}

func TestFlowsSkipsSilentDomains(t *testing.T) {
	fs, err := Flows(geom.NewMesh(4, 4), traffic.Corner, []traffic.Source{
		{Rate: 0.1, Burst: 1},
		{Rate: 0},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fs.Flows) != 1 || fs.Flows[0].Domain != 0 {
		t.Errorf("flows = %+v, want the single domain-0 corner flow", fs.Flows)
	}
}

func TestFlowsMatchesGeneratorPatterns(t *testing.T) {
	mesh := geom.NewMesh(4, 4)
	for pattern, wantFlows := range map[traffic.Pattern]int{
		traffic.Corner:        1,
		traffic.Transpose:     12, // 16 nodes minus the 4 diagonal ones
		traffic.BitComplement: 16,
	} {
		fs, err := Flows(mesh, pattern, []traffic.Source{{Rate: 0.1, Burst: 1, Class: packet.Ctrl}})
		if err != nil {
			t.Fatalf("%v: %v", pattern, err)
		}
		if len(fs.Flows) != wantFlows {
			t.Errorf("%v: %d flows, want %d", pattern, len(fs.Flows), wantFlows)
		}
		for _, f := range fs.Flows {
			if f.Src == f.Dst || !mesh.Contains(f.Dst) {
				t.Errorf("%v: bad flow %+v", pattern, f)
			}
			if f.Size != 1 {
				t.Errorf("%v: flow size %d, want the Ctrl class's 1 flit", pattern, f.Size)
			}
		}
	}
}

// Uniform and hotspot draw their destinations at random: Flows must
// refuse them with an error, not a panic.
func TestFlowsRejectsRandomPatterns(t *testing.T) {
	for _, p := range []traffic.Pattern{traffic.UniformRandom, traffic.Hotspot} {
		_, err := Flows(geom.NewMesh(4, 4), p, []traffic.Source{{Rate: 0.1, Burst: 1, Class: packet.Ctrl}})
		if err == nil || !strings.Contains(err.Error(), "randomized") {
			t.Errorf("%v: got %v, want the randomized-destinations error", p, err)
		}
	}
}

// TestConformanceRecorderWiring: a recorder rides a clean check
// without producing a dump (Flight is only for failures), but it did
// observe the run — the snapshot is non-empty — proving the forensic
// path is armed when a violation would need it.
func TestConformanceRecorderWiring(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Width, cfg.Height = 4, 4
	cfg.Domains = 2
	rec := probe.NewFlightRecorder(0)
	rep, err := Run(Check{
		Cfg:      cfg,
		Pattern:  traffic.Transpose,
		Sources:  ctrlSources(2, 2e-4, 1, false),
		Measure:  1500,
		Drain:    20000,
		Seed:     1,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatal(err)
	}
	if rep.Flight != nil {
		t.Error("clean check produced a flight dump")
	}
	if len(rec.Snapshot()) == 0 {
		t.Error("recorder saw no events; a violation would dump nothing")
	}
}

// TestReportFlightOnViolation exercises the dump-on-failure branch
// without needing a real bound violation (the analysis is sound): a
// report whose drain budget left packets stuck has Err() != nil, which
// is the same trigger.
func TestReportFlightOnViolation(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Width, cfg.Height = 4, 4
	cfg.Domains = 2
	rec := probe.NewFlightRecorder(0)
	// Greedy on-off sources fire their whole token bucket at cycle 0;
	// with no drain budget the backlog cannot deliver, so the check
	// fails with LeftInFlight > 0 and must attach the dump.
	rep, err := Run(Check{
		Cfg:      cfg,
		Pattern:  traffic.BitComplement,
		Sources:  ctrlSources(2, 1e-4, 3, true),
		Measure:  5,
		Drain:    0,
		Seed:     3,
		Recorder: rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatal("backlogged run with zero drain budget reported success")
	}
	if rep.Flight == nil {
		t.Fatal("failed check did not attach a flight dump")
	}
	if len(rep.Flight.Events) == 0 {
		t.Error("flight dump is empty")
	}
	if !strings.Contains(rep.Flight.Reason, "conformance") {
		t.Errorf("dump reason %q does not name the oracle", rep.Flight.Reason)
	}
}
