package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/traffic"
)

// chromeTrace mirrors the Trace Event Format fields Perfetto needs to
// load a file; parsing into it proves the JSON is well formed.
type chromeTrace struct {
	DisplayTimeUnit string `json:"displayTimeUnit"`
	TraceEvents     []struct {
		Name string `json:"name"`
		Cat  string `json:"cat"`
		Ph   string `json:"ph"`
		Ts   int64  `json:"ts"`
		Dur  int64  `json:"dur"`
		Pid  int64  `json:"pid"`
		Tid  uint64 `json:"tid"`
	} `json:"traceEvents"`
}

// TestPerfettoRealRun attaches the exporter to a real SB run (via
// sim.Options.Taps) and checks the output is loadable Chrome trace
// JSON containing both hop slices and packet life spans with sane
// geometry.
func TestPerfettoRealRun(t *testing.T) {
	cfg := config.Default(config.SB)
	cfg.Width, cfg.Height, cfg.Domains = 4, 4, 2
	sources := make([]traffic.Source, cfg.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: 0.02, Class: packet.Ctrl, VNet: -1}
	}
	var sb strings.Builder
	pf := NewPerfetto(&sb)
	res, err := sim.Run(sim.Options{
		Cfg: cfg, Pattern: traffic.Transpose, Sources: sources,
		Warmup: 0, Measure: 400, Drain: 2000, Seed: 1,
		Taps: []probe.Tap{pf},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	if err := pf.Close(); err != nil {
		t.Fatal("second Close errored:", err)
	}

	var ct chromeTrace
	if err := json.Unmarshal([]byte(sb.String()), &ct); err != nil {
		t.Fatalf("output is not valid Chrome trace JSON: %v", err)
	}
	if int64(len(ct.TraceEvents)) != pf.Events() {
		t.Errorf("parsed %d events, exporter reports %d", len(ct.TraceEvents), pf.Events())
	}
	hops, pkts := 0, 0
	for _, e := range ct.TraceEvents {
		if e.Ph != "X" {
			t.Fatalf("event phase %q, want complete events (X)", e.Ph)
		}
		switch e.Cat {
		case "hop":
			hops++
			if e.Dur != 1 {
				t.Fatalf("hop slice dur %d, want 1", e.Dur)
			}
		case "packet":
			pkts++
			if e.Dur < 1 {
				t.Fatalf("packet span dur %d, want ≥ 1", e.Dur)
			}
		}
		if e.Pid < 0 || e.Pid >= int64(cfg.Domains) {
			t.Fatalf("pid %d outside domain range", e.Pid)
		}
	}
	if hops == 0 || pkts == 0 {
		t.Fatalf("trace holds %d hop and %d packet events; want both", hops, pkts)
	}
	if int64(pkts) != res.Total.Ejected {
		t.Errorf("%d packet spans for %d ejections", pkts, res.Total.Ejected)
	}
}

// TestPerfettoEmpty: an exporter that saw no events still closes into
// a loadable (empty) trace.
func TestPerfettoEmpty(t *testing.T) {
	var sb strings.Builder
	pf := NewPerfetto(&sb)
	if err := pf.Close(); err != nil {
		t.Fatal(err)
	}
	var ct chromeTrace
	if err := json.Unmarshal([]byte(sb.String()), &ct); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v", err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("empty trace holds %d events", len(ct.TraceEvents))
	}
}
