package wcta

import (
	"errors"
	"math/rand"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/power"
	"surfbless/internal/router/surfbless"
	"surfbless/internal/stats"
)

func cornerFlow() Flow {
	return Flow{Src: geom.Coord{}, Dst: geom.Coord{X: 7, Y: 7}, Domain: 0, Rate: 5e-4, Burst: 1}
}

func cfgFor(m config.Model, n int) config.Config {
	cfg := config.Default(m)
	cfg.Width, cfg.Height = n, n
	cfg.Domains = 2
	return cfg
}

func analyze(t *testing.T, cfg config.Config, flows ...Flow) *Analysis {
	t.Helper()
	a, err := Analyze(cfg, nil, FlowSet{Flows: flows})
	if err != nil {
		t.Fatalf("Analyze(%v): %v", cfg.Model, err)
	}
	return a
}

func TestValidateTypedErrors(t *testing.T) {
	cfg := cfgFor(config.SB, 4)
	ok := Flow{Src: geom.Coord{}, Dst: geom.Coord{X: 3, Y: 3}, Domain: 0, Rate: 0.1, Burst: 1}

	bad := ok
	bad.Dst = geom.Coord{X: 4, Y: 0}
	err := FlowSet{Flows: []Flow{ok, bad}}.Validate(cfg)
	var ee *EndpointError
	if !errors.As(err, &ee) {
		t.Fatalf("out-of-mesh dst: got %v, want *EndpointError", err)
	}
	if ee.Index != 1 || ee.End != "dst" {
		t.Errorf("EndpointError = %+v, want Index 1 End dst", ee)
	}

	bad = ok
	bad.Src = geom.Coord{X: -1, Y: 0}
	if err := (FlowSet{Flows: []Flow{bad}}).Validate(cfg); !errors.As(err, &ee) || ee.End != "src" {
		t.Errorf("out-of-mesh src: got %v, want *EndpointError for src", err)
	}

	bad = ok
	bad.Domain = 2
	err = FlowSet{Flows: []Flow{bad}}.Validate(cfg)
	var de *DomainError
	if !errors.As(err, &de) {
		t.Fatalf("domain ≥ NumDomains: got %v, want *DomainError", err)
	}
	if de.Index != 0 || de.Domain != 2 || de.Domains != 2 {
		t.Errorf("DomainError = %+v, want Index 0 Domain 2 Domains 2", de)
	}

	for name, mut := range map[string]func(*Flow){
		"self-addressed": func(f *Flow) { f.Dst = f.Src },
		"zero rate":      func(f *Flow) { f.Rate = 0 },
		"rate above 1":   func(f *Flow) { f.Rate = 1.5 },
		"zero burst":     func(f *Flow) { f.Burst = 0 },
		"negative size":  func(f *Flow) { f.Size = -1 },
	} {
		f := ok
		mut(&f)
		if err := (FlowSet{Flows: []Flow{f}}).Validate(cfg); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, f)
		}
	}
	if err := (FlowSet{}).Validate(cfg); err == nil {
		t.Error("empty flow set accepted")
	}
}

// Zero-load bounds for a lone corner-to-corner flow must equal the
// fabric's hand-derived traversal times: P·H for SB (the wave schedule
// gives an uncontended packet a pure XY ride), P·H + (L−1) for WH, and
// the same plus one gating wait per hop for Surf under round-robin
// domains.  The conformance harness confirms the simulator observes
// exactly these on WH and SB.
func TestZeroLoadBounds(t *testing.T) {
	for _, tc := range []struct {
		model config.Model
		n     int
		want  int64
		tight bool
	}{
		{config.WH, 4, 30, true},    // 5·6
		{config.WH, 8, 70, true},    // 5·14
		{config.SB, 4, 18, true},    // 3·6
		{config.SB, 8, 42, true},    // 3·14
		{config.Surf, 4, 36, false}, // 5·6 + 6·1
		{config.Surf, 8, 84, false}, // 5·14 + 14·1
	} {
		f := cornerFlow()
		f.Dst = geom.Coord{X: tc.n - 1, Y: tc.n - 1}
		a := analyze(t, cfgFor(tc.model, tc.n), f)
		b := a.Bound(0)
		if !b.Bounded || b.Cycles != tc.want || b.Tight != tc.tight {
			t.Errorf("%v %dx%d: bound %v, want %d cycles tight=%v", tc.model, tc.n, tc.n, b, tc.want, tc.tight)
		}
	}
}

func TestUnboundedModels(t *testing.T) {
	for _, m := range []config.Model{config.BLESS, config.CHIPPER, config.RUNAHEAD} {
		a := analyze(t, cfgFor(m, 8), cornerFlow())
		b := a.Bound(0)
		if b.Bounded || b.Reason == "" {
			t.Errorf("%v: bound %+v, want Unbounded with a reason", m, b)
		}
	}
}

// Overloading a shared link must yield an explicit refusal, not a
// garbage number: three flows at 0.5 packets/cycle through the same
// column cannot all be served.
func TestDivergenceIsExplicit(t *testing.T) {
	var flows []Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, Flow{
			Src: geom.Coord{X: i, Y: 0}, Dst: geom.Coord{X: 7, Y: 7},
			Domain: 0, Rate: 0.5, Burst: 1,
		})
	}
	a := analyze(t, cfgFor(config.WH, 8), flows...)
	for i := range flows {
		if b := a.Bound(i); b.Bounded || b.Reason == "" {
			t.Errorf("flow %d: bound %+v, want Unbounded with a reason", i, b)
		}
	}
}

// Same-domain contention must grow the SB bound and clear Tight: the
// victim can now rank behind its neighbours' packets.
func TestSBSameDomainContentionGrows(t *testing.T) {
	victim := cornerFlow()
	alone := analyze(t, cfgFor(config.SB, 8), victim).Bound(0)
	rival := Flow{Src: geom.Coord{X: 3, Y: 0}, Dst: geom.Coord{X: 0, Y: 3}, Domain: 0, Rate: 1e-3, Burst: 2}
	crowded := analyze(t, cfgFor(config.SB, 8), victim, rival).Bound(0)
	if !crowded.Bounded || crowded.Cycles <= alone.Cycles {
		t.Fatalf("crowded bound %v not above lone bound %v", crowded, alone)
	}
	if crowded.Tight {
		t.Error("bound with same-domain contention still marked tight")
	}
}

// randomAggressors builds a reproducible flow set in the given domain.
func randomAggressors(rng *rand.Rand, n, domain, count int) []Flow {
	var flows []Flow
	for len(flows) < count {
		src := geom.Coord{X: rng.Intn(n), Y: rng.Intn(n)}
		dst := geom.Coord{X: rng.Intn(n), Y: rng.Intn(n)}
		if src == dst {
			continue
		}
		flows = append(flows, Flow{
			Src: src, Dst: dst, Domain: domain,
			Rate:  1e-4 + rng.Float64()*1e-3,
			Burst: 1 + rng.Intn(3),
		})
	}
	return flows
}

// The confinement property at analysis level: whatever the other
// domains do — different flows, rates, bursts, or a different order of
// the same flows — the victim's SB and Surf bounds are bit-identical,
// because neither backend lets a foreign domain into a bound.  WH, by
// contrast, must react to cross-domain load on shared links.
func TestConfinedBoundsIgnoreOtherDomains(t *testing.T) {
	const n = 8
	victim := cornerFlow()
	for _, model := range []config.Model{config.SB, config.Surf} {
		cfg := cfgFor(model, n)
		base := analyze(t, cfg, victim).Bound(0)
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 25; trial++ {
			flows := append([]Flow{victim}, randomAggressors(rng, n, 1, 1+rng.Intn(8))...)
			// Shuffle so the victim's position in the set varies too.
			idx := rng.Perm(len(flows))
			shuffled := make([]Flow, len(flows))
			pos := 0
			for i, j := range idx {
				shuffled[i] = flows[j]
				if j == 0 {
					pos = i
				}
			}
			got := analyze(t, cfg, shuffled...).Bound(pos)
			if !equalBounds(got, base) {
				t.Fatalf("%v trial %d: victim bound changed under foreign traffic:\n got %+v\nwant %+v", model, trial, got, base)
			}
		}
	}

	// WH contrast: a cross-domain burst crossing the victim's route
	// must show up in the bound.
	cfg := cfgFor(config.WH, n)
	base := analyze(t, cfg, victim).Bound(0)
	rival := Flow{Src: geom.Coord{X: 3, Y: 0}, Dst: geom.Coord{X: 7, Y: 2}, Domain: 1, Rate: 1e-3, Burst: 2}
	loud := analyze(t, cfg, victim, rival).Bound(0)
	if !loud.Bounded || loud.Cycles <= base.Cycles {
		t.Fatalf("WH victim bound %v did not grow above %v under cross-domain load", loud, base)
	}
}

// equalBounds compares bounds ignoring Terms slice identity.
func equalBounds(a, b Bound) bool {
	if a.Bounded != b.Bounded || a.Cycles != b.Cycles || a.Tight != b.Tight || a.Reason != b.Reason {
		return false
	}
	if len(a.Terms) != len(b.Terms) {
		return false
	}
	for i := range a.Terms {
		if a.Terms[i] != b.Terms[i] {
			return false
		}
	}
	return true
}

func TestAnalyzeRejectsInvalidInput(t *testing.T) {
	cfg := cfgFor(config.SB, 8)
	if _, err := Analyze(cfg, nil, FlowSet{}); err == nil {
		t.Error("Analyze accepted an empty flow set")
	}
	bad := cfg
	bad.Domains = 0
	if _, err := Analyze(bad, nil, FlowSet{Flows: []Flow{cornerFlow()}}); err == nil {
		t.Error("Analyze accepted an invalid config")
	}
}

func TestBoundString(t *testing.T) {
	if got := (Bound{Bounded: true, Cycles: 42, Tight: true}).String(); got != "42 cycles (tight)" {
		t.Errorf("String() = %q", got)
	}
	if got := (Bound{Reason: "x"}).String(); got != "unbounded: x" {
		t.Errorf("String() = %q", got)
	}
}

func TestFlitSizeNormalization(t *testing.T) {
	if (Flow{}).FlitSize() != 1 || (Flow{Size: 5}).FlitSize() != 5 {
		t.Error("FlitSize normalization broken")
	}
}

// A bound holds only for a plan the fabric runs: slot widths that
// surfbless.New refuses (no 5-wide window exists among 2 round-robin
// domains' 1-wave runs) must be refused by the analysis too.
func TestAnalyzeRefusesFabricRefusedSlots(t *testing.T) {
	cfg := cfgFor(config.SB, 4)
	slots := []int{5, 5}
	col := stats.NewCollector(cfg.Domains, 0, 0)
	if _, err := surfbless.New(cfg, slots, nil, col, power.NewMeter(cfg, power.Default45nm())); err == nil {
		t.Fatal("surfbless.New accepted the slot plan")
	}
	f := Flow{Src: geom.Coord{}, Dst: geom.Coord{X: 3, Y: 3}, Domain: 0, Rate: 0.01, Burst: 1, Size: 5}
	if a, err := Analyze(cfg, slots, FlowSet{Flows: []Flow{f}}); err == nil {
		t.Errorf("Analyze accepted the slot plan the fabric refuses: %v", a.Bound(0))
	}
}
