package experiments

import (
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/probe"
)

// The experiment tests run at the Tiny scale and assert the SHAPES the
// paper reports — who wins, what is flat, what grows — not absolute
// numbers.  Each runs its driver through counted, which also proves the
// driver's /progress count.

// counted runs driver at the Tiny scale with a fresh progress tracker
// installed, and fails t unless the driver declared want points and
// counted every one of them as done.
func counted[R any](t *testing.T, want int64, driver func(Scale) (R, error)) R {
	t.Helper()
	g := probe.NewProgress()
	SetProgress(g)
	defer SetProgress(nil)
	r, err := driver(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if s := g.Snapshot(); s.Done != want || s.Total != want {
		t.Errorf("progress done %d of %d, want %d of %d", s.Done, s.Total, want, want)
	}
	return r
}

func TestScaleValidate(t *testing.T) {
	for _, sc := range []Scale{Tiny(), Quick(), Full()} {
		if err := sc.Validate(); err != nil {
			t.Errorf("built-in scale invalid: %v", err)
		}
	}
	if (Scale{}).Validate() == nil {
		t.Error("zero scale accepted")
	}
}

func TestTable1(t *testing.T) {
	tab := Table1()
	out := tab.String()
	for _, want := range []string{"8 x 8 mesh", "2-stage and 4-stage", "1 ctrl VC and 2 data VCs",
		"128 bits/cycle", "Two-level MESI", "42 waves"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

// Fig 5: SB's victim series must be perfectly flat (bit-identical runs)
// while BLESS degrades with interference.
func TestFig5Shape(t *testing.T) {
	r := counted(t, 2*2*int64(len(Fig5Rates)), Fig5) // models × rates × {latency, saturation}
	for i := 1; i < len(r.Rates); i++ {
		if r.SBLatency[i] != r.SBLatency[0] {
			t.Errorf("SB victim latency moved: %.3f @%.2f vs %.3f @0",
				r.SBLatency[i], r.Rates[i], r.SBLatency[0])
		}
		if r.SBThroughput[i] != r.SBThroughput[0] {
			t.Errorf("SB victim throughput moved at rate %.2f", r.Rates[i])
		}
	}
	last := len(r.Rates) - 1
	if r.BLESSLatency[last] <= r.BLESSLatency[0]*1.05 {
		t.Errorf("BLESS victim latency did not degrade: %.2f → %.2f",
			r.BLESSLatency[0], r.BLESSLatency[last])
	}
	if tabs := r.Tables(); len(tabs) != 2 || tabs[0].Rows() != len(r.Rates) {
		t.Error("Fig5 tables malformed")
	}
}

// Fig 6: the energy ordering and scaling claims of §5.1.2.
func TestFig6Shape(t *testing.T) {
	r := counted(t, 2+2*9, Fig6) // WH, BLESS, then Surf and SB at D=1…9
	byLabel := map[string]Fig6Row{}
	for _, row := range r.Rows {
		byLabel[row.Label] = row
	}
	wh := byLabel["WH"].Energy.Total()
	bless := byLabel["BLESS"].Energy.Total()
	if bless >= wh {
		t.Error("BLESS must consume less than WH")
	}
	// SB ≪ Surf at every domain count; both grow with D, Surf faster.
	for d := 1; d <= 9; d++ {
		surf := byLabel[label("Surf", d)].Energy.Total()
		sb := byLabel[label("SB", d)].Energy.Total()
		if sb >= surf {
			t.Errorf("D=%d: SB energy %.3g not below Surf %.3g", d, sb, surf)
		}
	}
	surfGrowth := byLabel[label("Surf", 9)].Energy.Total() - byLabel[label("Surf", 1)].Energy.Total()
	sbGrowth := byLabel[label("SB", 9)].Energy.Total() - byLabel[label("SB", 1)].Energy.Total()
	if surfGrowth <= 2*sbGrowth {
		t.Errorf("Surf energy growth %.3g not ≫ SB growth %.3g", surfGrowth, sbGrowth)
	}
	// SB stays a bit above BLESS (injection VCs + schedulers).
	if byLabel[label("SB", 1)].Energy.Total() <= bless {
		t.Error("SB(1) should cost slightly more than BLESS")
	}
	if len(r.Tables()) != 1 {
		t.Error("Fig6 tables malformed")
	}
}

func label(model string, d int) string {
	return model + " " + string(rune('0'+d)) + "_D"
}

// Fig 7(a): aligned domain counts (2 divides 2P) track the BLESS
// baseline; misaligned ones (4) pay latency at low load.
func TestFig7Shape(t *testing.T) {
	r := counted(t, 3*2*int64(len(Fig7Rates)), func(sc Scale) (Fig7Result, error) {
		return Fig7Domains(sc, []int{1, 2, 4})
	})
	if len(r.A) != 3 || len(r.B) != 3 {
		t.Fatalf("series missing: %d/%d", len(r.A), len(r.B))
	}
	lowRateIdx := 1 // 0.05
	d1, d2, d4 := r.A[0].Latency[lowRateIdx], r.A[1].Latency[lowRateIdx], r.A[2].Latency[lowRateIdx]
	if d2 > 1.35*d1 {
		t.Errorf("aligned D=2 latency %.1f strays from BLESS %.1f", d2, d1)
	}
	if d4 <= 1.2*d2 {
		t.Errorf("misaligned D=4 latency %.1f not clearly above aligned D=2 %.1f", d4, d2)
	}
	// The VC family degrades more gracefully: Surf D=4 stays closer to
	// WH than SB D=4 does to BLESS.
	sbPenalty := r.A[2].Latency[lowRateIdx] / r.A[0].Latency[lowRateIdx]
	surfPenalty := r.B[2].Latency[lowRateIdx] / r.B[0].Latency[lowRateIdx]
	if surfPenalty >= sbPenalty {
		t.Errorf("Surf D=4 penalty %.2f should be milder than SB's %.2f", surfPenalty, sbPenalty)
	}
	if len(r.Tables()) != 4 {
		t.Error("Fig7 tables malformed")
	}
}

// Figs 8–10 shapes: small SB execution penalty, mixed latency effects,
// large SB energy saving, Surf energy above WH.
func TestAppsShape(t *testing.T) {
	if testing.Short() {
		t.Skip("27 full-system runs")
	}
	r := counted(t, 9*3, Apps)
	if len(r.Apps) != 9 {
		t.Fatalf("%d apps, want 9", len(r.Apps))
	}
	pen := r.SBExecPenalty()
	if pen < -0.05 || pen > 0.25 {
		t.Errorf("SB exec penalty %.1f%% outside the plausible band (paper: 3.23%%)", pen*100)
	}
	saving := r.SBEnergySaving()
	if saving < 0.3 {
		t.Errorf("SB energy saving %.1f%% too small (paper: 53.6%%)", saving*100)
	}
	for _, app := range r.Apps {
		wh := r.Runs[app][config.WH].Energy.Total()
		surf := r.Runs[app][config.Surf].Energy.Total()
		sb := r.Runs[app][config.SB].Energy.Total()
		if sb >= wh {
			t.Errorf("%s: SB energy %.3g not below WH %.3g", app, sb, wh)
		}
		if surf <= wh {
			t.Errorf("%s: Surf energy %.3g should exceed WH %.3g", app, surf, wh)
		}
	}
	if len(r.Tables()) != 3 {
		t.Error("Apps tables malformed")
	}
}

func TestAblationWaveSets(t *testing.T) {
	if testing.Short() {
		t.Skip("6 full-system runs")
	}
	rows := counted(t, 3*2, AblationWaveSets)
	for _, row := range rows {
		if row.PaperExec <= row.TunedExec {
			t.Errorf("%s: paper's wave sets (%d) should run longer than the tuned ones (%d)",
				row.App, row.PaperExec, row.TunedExec)
		}
	}
	if WaveSetTable(rows).Rows() != len(rows) {
		t.Error("wave-set table malformed")
	}
}

// The routing ablation runs its policy fabrics outside runSim; its
// three points count in /progress like every other driver's.
func TestAblationRouting(t *testing.T) {
	rows, err := AblationRouting(Tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d variants, want 3", len(rows))
	}
	base := rows[0]
	if base.Latency <= 0 || base.Throughput <= 0 {
		t.Error("baseline routing produced no traffic")
	}
	if RoutingTable(rows).Rows() != 3 {
		t.Error("routing table malformed")
	}
}

// The routing ablation declares and counts its three points like every
// other driver: /progress must not read 100% while they run.
func TestAblationRoutingCountsProgress(t *testing.T) {
	counted(t, 3, AblationRouting)
}

func TestAblationMeshSweep(t *testing.T) {
	rows := counted(t, 4, AblationMeshSweep)
	if len(rows) != 4 {
		t.Fatalf("%d mesh points, want 4", len(rows))
	}
	for i, row := range rows {
		wantSmax := 2 * 3 * (row.N - 1)
		if row.Smax != wantSmax {
			t.Errorf("N=%d: Smax %d, want %d", row.N, row.Smax, wantSmax)
		}
		if i > 0 && row.Latency <= rows[i-1].Latency {
			t.Errorf("latency should grow with mesh size: N=%d %.1f vs N=%d %.1f",
				row.N, row.Latency, rows[i-1].N, rows[i-1].Latency)
		}
	}
	if MeshTable(rows).Rows() != 4 {
		t.Error("mesh table malformed")
	}
}

func TestFig3(t *testing.T) {
	frames := Fig3()
	if len(frames) != 6 {
		t.Fatalf("%d frames, want 6 (the pattern repeats after 6 slots)", len(frames))
	}
	text := Fig3Text()
	if !strings.Contains(text, "T=0 wave 0") || !strings.Contains(text, "T=5 wave 0") {
		t.Error("Fig3Text missing frames")
	}
	for i, f := range frames {
		if !strings.Contains(f, "o") {
			t.Errorf("frame %d has no routers", i)
		}
	}
}

func TestExtensionBufferless(t *testing.T) {
	rows := counted(t, 4*3, ExtensionBufferless)
	if len(rows) != 12 {
		t.Fatalf("%d rows, want 12 (4 models × 3 rates)", len(rows))
	}
	byModel := map[config.Model][]BufferlessRow{}
	for _, r := range rows {
		byModel[r.Model] = append(byModel[r.Model], r)
		if r.MeanLatency <= 0 || r.P99Latency <= 0 {
			t.Errorf("%v@%.2f: empty stats", r.Model, r.Rate)
		}
	}
	// CHIPPER is the cheapest router; its p99 at high load is at least
	// BLESS's (no age-based priority).
	if byModel[config.CHIPPER][0].StaticW >= byModel[config.BLESS][0].StaticW {
		t.Error("CHIPPER must have the cheapest router")
	}
	if byModel[config.CHIPPER][2].P99Latency < byModel[config.BLESS][2].P99Latency {
		t.Errorf("CHIPPER p99 %d below BLESS p99 %d at high load — golden class beats oldest-first?",
			byModel[config.CHIPPER][2].P99Latency, byModel[config.BLESS][2].P99Latency)
	}
	if BufferlessTable(rows).Rows() != 12 {
		t.Error("bufferless table malformed")
	}
}

func TestExtensionPatterns(t *testing.T) {
	rows := counted(t, 4*4, ExtensionPatterns) // patterns × {SB, BLESS} × {quiet, loud}
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 4 patterns", len(rows))
	}
	for _, r := range rows {
		if r.VictimDrift != 0 {
			t.Errorf("%v: SB victim latency drifted by %g cycles", r.Pattern, r.VictimDrift)
		}
	}
	// Under at least the uniform pattern BLESS must visibly drift.
	if rows[0].BLESSDriftPc < 3 {
		t.Errorf("uniform: BLESS drift %.1f%% suspiciously small", rows[0].BLESSDriftPc)
	}
	if PatternTable(rows).Rows() != 4 {
		t.Error("pattern table malformed")
	}
}

// The WCTA matrix at the tiny scale: every cell passes its soundness
// and tightness checks (WCTAConformance errors otherwise), and each of
// its model × mesh × scenario × seed points counts once.
func TestWCTAConformance(t *testing.T) {
	rows := counted(t, 3*3*int64(len(wctaScenarios()))*5, WCTAConformance)
	if len(rows) != 3*3*len(wctaScenarios()) {
		t.Fatalf("%d rows, want %d", len(rows), 3*3*len(wctaScenarios()))
	}
	for _, r := range rows {
		if r.Violations != 0 || r.Ejected == 0 || r.WorstBound == 0 {
			t.Errorf("%v %dx%d %s: %+v", r.Model, r.Mesh, r.Mesh, r.Scenario, r)
		}
	}
	if WCTATable(rows).Rows() != len(rows) {
		t.Error("wcta table malformed")
	}
}
