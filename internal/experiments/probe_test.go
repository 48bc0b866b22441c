package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"surfbless/internal/probe"
)

// flightScale is small enough that Fig5Probe's 14 runs finish in well
// under a second while still ejecting packets at every rate.
func probeScale() Scale {
	return Scale{Warmup: 50, Measure: 300, Drain: 3000, EnergyCycles: 1, Instr: 1, Seed: 1}
}

// TestFig5ProbeWritesSpans: the probed Fig. 5 sweep leaves time series,
// heatmaps and — at the top interference rate — a loadable Chrome
// trace for both models.
func TestFig5ProbeWritesSpans(t *testing.T) {
	dir := t.TempDir()
	g := probe.NewProgress()
	SetProgress(g)
	defer SetProgress(nil)
	if err := Fig5Probe(probeScale(), 100, dir); err != nil {
		t.Fatal(err)
	}
	if s, want := g.Snapshot(), 2*int64(len(Fig5Rates)); s.Done != want || s.Total != want {
		t.Errorf("progress done %d of %d, want %d of %d", s.Done, s.Total, want, want)
	}
	for _, model := range []string{"BLESS", "SB"} {
		for _, want := range []string{"fig5_ts_", "fig5_heat_"} {
			matches, err := filepath.Glob(filepath.Join(dir, want+model+"_r*"))
			if err != nil || len(matches) == 0 {
				t.Errorf("%s%s*: no output files (%v)", want, model, err)
			}
		}
		spans, err := filepath.Glob(filepath.Join(dir, "fig5_spans_"+model+"_r*.json"))
		if err != nil || len(spans) != 1 {
			t.Fatalf("fig5_spans_%s: got %v (%v), want exactly one", model, spans, err)
		}
		raw, err := os.ReadFile(spans[0])
		if err != nil {
			t.Fatal(err)
		}
		var ct struct {
			TraceEvents []struct {
				Ph  string `json:"ph"`
				Cat string `json:"cat"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &ct); err != nil {
			t.Fatalf("%s is not valid Chrome trace JSON: %v", spans[0], err)
		}
		if len(ct.TraceEvents) == 0 {
			t.Errorf("%s holds no trace events", spans[0])
		}
	}
}

// TestWriteFlightDump covers the forensic-dump helper end to end:
// disabled without a directory, round-trips a dump when one is set.
func TestWriteFlightDump(t *testing.T) {
	d := &probe.FlightDump{
		Version: probe.FlightDumpVersion, Reason: "test", Cycle: 42,
		Window: 8, Model: "SB", Width: 4, Height: 4, Domains: 2,
		Events: []probe.Event{{Cycle: 41, Kind: probe.KindTick, Node: -1, Src: -1, Dst: -1, Flits: -1}},
	}

	SetFlightDir("")
	if path, err := writeFlightDump(d, "unset"); err != nil || path != "" {
		t.Fatalf("disabled dump wrote %q (%v)", path, err)
	}

	dir := t.TempDir()
	SetFlightDir(dir)
	defer SetFlightDir("")
	if path, err := writeFlightDump(nil, "nildump"); err != nil || path != "" {
		t.Fatalf("nil dump wrote %q (%v)", path, err)
	}
	path, err := writeFlightDump(d, "wcta_SB_4x4_corner-quiet_s1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "wcta_SB_4x4_corner-quiet_s1.flight.json") {
		t.Fatalf("dump path %q", path)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := probe.ReadFlightDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, d)
	}
}
