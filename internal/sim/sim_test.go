package sim

import (
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
	"surfbless/internal/wave"
)

func ctrlSources(domains int, rate float64) []traffic.Source {
	ss := make([]traffic.Source, domains)
	for i := range ss {
		ss[i] = traffic.Source{Rate: rate, Class: packet.Ctrl, VNet: -1}
	}
	return ss
}

func lowLoad(t *testing.T, m config.Model, domains int) Result {
	t.Helper()
	cfg := config.Default(m)
	cfg.Domains = domains
	// §5.1.2: packets are equally assigned/injected to each domain, so
	// the total offered load stays fixed as the domain count varies.
	res, err := Run(Options{
		Cfg:        cfg,
		Pattern:    traffic.UniformRandom,
		Sources:    ctrlSources(domains, 0.05/float64(domains)),
		Warmup:     500,
		Measure:    3000,
		Drain:      5000,
		Seed:       42,
		AuditEvery: 500,
	})
	if err != nil {
		t.Fatalf("%v D=%d: %v", m, domains, err)
	}
	return res
}

// Every model must deliver all traffic at low load and drain empty.
func TestLowLoadDelivery(t *testing.T) {
	for _, m := range []config.Model{
		config.WH, config.BLESS, config.Surf, config.SB, config.CHIPPER, config.RUNAHEAD,
	} {
		res := lowLoad(t, m, 1)
		if res.LeftInFlight != 0 {
			t.Errorf("%v: %d packets stuck after drain", m, res.LeftInFlight)
		}
		tot := res.Total
		if tot.Created == 0 || tot.Ejected != tot.Created {
			t.Errorf("%v: created %d, ejected %d", m, tot.Created, tot.Ejected)
		}
		if tot.Refused != 0 {
			t.Errorf("%v: %d offers refused at low load", m, tot.Refused)
		}
		t.Logf("%v: avg latency %.1f (net %.1f, queue %.1f), hops %.2f, defl %.3f",
			m, tot.AvgTotalLatency(), tot.AvgNetworkLatency(), tot.AvgQueueLatency(),
			tot.AvgHops(), tot.AvgDeflections())
	}
}

// Low-load latency sanity: bufferless models pay ~hops×3 cycles, VC
// models ~hops×5; uniform-random mean distance on an 8×8 mesh is 5.25.
func TestLowLoadLatencyBands(t *testing.T) {
	for _, tc := range []struct {
		m        config.Model
		min, max float64
	}{
		{config.BLESS, 12, 25},
		{config.SB, 12, 30},
		{config.WH, 20, 45},
		{config.Surf, 20, 55},
		{config.CHIPPER, 12, 30},
		{config.RUNAHEAD, 4, 15}, // single-cycle hops
	} {
		res := lowLoad(t, tc.m, 1)
		got := res.Total.AvgTotalLatency()
		if got < tc.min || got > tc.max {
			t.Errorf("%v: avg latency %.1f outside [%g, %g]", tc.m, got, tc.min, tc.max)
		}
	}
}

// SB must run cleanly (assertions are always on) for every §5.1.2
// domain count.
func TestSBAllDomainCounts(t *testing.T) {
	for d := 1; d <= 9; d++ {
		res := lowLoad(t, config.SB, d)
		if res.LeftInFlight != 0 {
			t.Errorf("D=%d: %d packets stuck", d, res.LeftInFlight)
		}
		if res.Total.Ejected == 0 {
			t.Errorf("D=%d: nothing delivered", d)
		}
	}
}

// Surf must run cleanly for every domain count too (4-flit VC per
// domain, as in §5.1.2).
func TestSurfAllDomainCounts(t *testing.T) {
	for d := 1; d <= 9; d++ {
		cfg := config.Default(config.Surf)
		cfg.Domains = d
		cfg.CtrlVCsPerPort, cfg.CtrlVCDepth = 0, 0
		cfg.DataVCsPerPort, cfg.DataVCDepth = 1, 4
		res, err := Run(Options{
			Cfg: cfg, Pattern: traffic.UniformRandom,
			Sources: ctrlSources(d, 0.02),
			Warmup:  500, Measure: 2000, Drain: 8000,
			Seed: 7, AuditEvery: 1000,
		})
		if err != nil {
			t.Fatalf("Surf D=%d: %v", d, err)
		}
		if res.Total.Ejected == 0 {
			t.Errorf("Surf D=%d: nothing delivered", d)
		}
		if res.LeftInFlight != 0 {
			t.Errorf("Surf D=%d: %d stuck", d, res.LeftInFlight)
		}
	}
}

// victimRun runs the Fig-5 scenario: domain 0 is the observed (victim)
// domain at a fixed 0.05 rate, domain 1 is interference at the given
// rate, and returns the victim's metrics.
func victimRun(t *testing.T, m config.Model, interferenceRate float64) stats.Domain {
	t.Helper()
	cfg := config.Default(m)
	cfg.Domains = 2
	res, err := Run(Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: []traffic.Source{
			{Rate: 0.05, Class: packet.Ctrl, VNet: -1},
			{Rate: interferenceRate, Class: packet.Ctrl, VNet: -1},
		},
		Warmup: 1000, Measure: 4000, Drain: 20000,
		Seed: 99, AuditEvery: 2000,
	})
	if err != nil {
		t.Fatalf("%v interference %.2f: %v", m, interferenceRate, err)
	}
	return res.Domains[0]
}

// The headline property (Fig. 5): Surf-Bless confines interference so
// tightly that the victim domain's statistics are BIT-IDENTICAL no
// matter what the other domain injects.
func TestSBNonInterferenceExact(t *testing.T) {
	base := victimRun(t, config.SB, 0)
	for _, rate := range []float64{0.05, 0.12, 0.2} {
		got := victimRun(t, config.SB, rate)
		if got != base {
			t.Errorf("SB victim metrics changed under interference %.2f:\nbase %+v\ngot  %+v",
				rate, base, got)
		}
	}
}

// …whereas BLESS, which does not support confined interference, must
// show the victim's latency rising with the interference load.
func TestBLESSInterferes(t *testing.T) {
	quiet := victimRun(t, config.BLESS, 0)
	loaded := victimRun(t, config.BLESS, 0.2)
	if loaded.AvgTotalLatency() <= quiet.AvgTotalLatency() {
		t.Errorf("BLESS victim latency did not rise: %.2f → %.2f",
			quiet.AvgTotalLatency(), loaded.AvgTotalLatency())
	}
}

// Surf also confines interference (it is the buffered comparator).
func TestSurfNonInterferenceExact(t *testing.T) {
	base := victimRun(t, config.Surf, 0)
	got := victimRun(t, config.Surf, 0.2)
	if got != base {
		t.Errorf("Surf victim metrics changed under interference:\nbase %+v\ngot  %+v", base, got)
	}
}

// WH does not confine interference either.
func TestWHInterferes(t *testing.T) {
	quiet := victimRun(t, config.WH, 0)
	loaded := victimRun(t, config.WH, 0.2)
	if loaded.AvgTotalLatency() <= quiet.AvgTotalLatency() {
		t.Errorf("WH victim latency did not rise: %.2f → %.2f",
			quiet.AvgTotalLatency(), loaded.AvgTotalLatency())
	}
}

// The §5.1.3 asymmetry: domain counts that do not divide 2·P = 6 pay an
// ejection-miss deflection penalty in SB.
func TestSBDomainCountDeflectionPenalty(t *testing.T) {
	defl := func(domains int) float64 {
		res := lowLoad(t, config.SB, domains)
		return res.Total.AvgDeflections()
	}
	aligned := defl(2)    // 6 % 2 == 0 → no ejection penalty
	misaligned := defl(4) // 6 % 4 != 0 → ejection-miss deflections
	if misaligned <= 2*aligned {
		t.Errorf("D=4 deflections %.3f not clearly above D=2 %.3f", misaligned, aligned)
	}
	// At 0.05 total load, aligned domains only see contention
	// deflections, which are rare.
	if aligned > 0.08 {
		t.Errorf("D=2 contention deflections %.3f unexpectedly high", aligned)
	}
}

// Multi-flit worms on explicit wave sets (the §5.2 configuration):
// 1-flit control in domain 0, 5-flit data packets in the other two.
func TestSBWaveSetsMultiFlit(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Domains = 3
	cfg.InjectionVCDepth = 5
	cfg.WaveSets = wave.PaperSets(5)
	res, err := Run(Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: []traffic.Source{
			{Rate: 0.03, Class: packet.Ctrl, VNet: 0},
			{Rate: 0.01, Class: packet.Data, VNet: 1},
			{Rate: 0.01, Class: packet.Data, VNet: 2},
		},
		SlotWidths: []int{1, 5, 5},
		Warmup:     500, Measure: 3000, Drain: 20000,
		Seed: 5, AuditEvery: 1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.LeftInFlight != 0 {
		t.Fatalf("%d packets stuck", res.LeftInFlight)
	}
	for d := 0; d < 3; d++ {
		if res.Domains[d].Ejected == 0 {
			t.Errorf("domain %d delivered nothing", d)
		}
	}
	// Data domains own 15/42 of the waves in 3 windows: their latency
	// must exceed the control domain's (fewer injection opportunities).
	if res.Domains[1].AvgTotalLatency() <= res.Domains[0].AvgTotalLatency() {
		t.Errorf("data latency %.1f not above control latency %.1f",
			res.Domains[1].AvgTotalLatency(), res.Domains[0].AvgTotalLatency())
	}
}

// Option validation.
func TestRunValidation(t *testing.T) {
	cfg := config.Default(config.SB)
	if _, err := Run(Options{Cfg: cfg, Sources: nil, Measure: 100}); err == nil {
		t.Error("missing sources accepted")
	}
	if _, err := Run(Options{Cfg: cfg, Sources: ctrlSources(1, 0.1), Measure: 0}); err == nil {
		t.Error("zero measure accepted")
	}
	bad := cfg
	bad.Domains = 0
	if _, err := Run(Options{Cfg: bad, Sources: ctrlSources(1, 0.1), Measure: 100}); err == nil {
		t.Error("invalid config accepted")
	}
}

// Determinism: identical options give identical results.
func TestRunDeterministic(t *testing.T) {
	opts := Options{
		Cfg:     config.Default(config.SB),
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(1, 0.1),
		Warmup:  200, Measure: 1000, Drain: 5000,
		Seed: 11,
	}
	opts.Cfg.Domains = 1
	a, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Total != b.Total || a.Cycles != b.Cycles {
		t.Error("identical runs diverged")
	}
}
