package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/traffic"
)

// degradedDump produces a real flight dump: a WH run wedged by a
// killed link until the watchdog trips, tapped by a recorder that is
// dumped from the DegradedError the way cmd/sweep -flight-dir does.
func degradedDump(t *testing.T) *probe.FlightDump {
	t.Helper()
	cfg := config.Default(config.WH)
	cfg.Width, cfg.Height = 4, 4
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkKill, Node: 0, Dir: 1 /* East */, At: 0},
	}}
	sources := make([]traffic.Source, cfg.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: 0.05 / float64(cfg.Domains), Class: packet.Ctrl, VNet: -1}
	}
	rec := probe.NewFlightRecorder(256)
	_, err := sim.Run(sim.Options{
		Cfg:                cfg,
		Pattern:            traffic.UniformRandom,
		Sources:            sources,
		Measure:            3000,
		Drain:              50000,
		Seed:               3,
		WatchdogNoProgress: 3000,
		WatchdogMaxAge:     -1,
		Taps:               []probe.Tap{rec},
	})
	var de *sim.DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected DegradedError, got %v", err)
	}
	d := rec.Dump(de.Reason, de.Cycle, cfg.Model.String(), cfg.Mesh(), cfg.Domains)
	if len(d.Events) == 0 {
		t.Fatal("flight dump holds no events")
	}
	return d
}

// TestFlightDumpRoundTrip is the acceptance path: a degraded run's
// dump survives WriteJSON → ReadFlightDump bit-exactly and renders as
// a timeline through `replay -flight`.
func TestFlightDumpRoundTrip(t *testing.T) {
	d := degradedDump(t)
	if d.Reason == "" || d.Model != "WH" || d.Width != 4 || d.Height != 4 {
		t.Fatalf("dump header = %+v", d)
	}

	path := filepath.Join(t.TempDir(), "flight.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	rf, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer rf.Close()
	got, err := probe.ReadFlightDump(rf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, d)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flight", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("replay -flight exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"flight dump:",
		d.Reason,
		"model WH, mesh 4x4",
		"--- cycle ",
		"tick:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
}

// TestFlightDumpRejectsGarbage keeps the forensic path honest about
// bad inputs: wrong version and non-JSON both fail loudly.
func TestFlightDumpRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"version":99,"events":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flight", bad}, &stdout, &stderr); code == 0 {
		t.Fatal("unsupported dump version accepted")
	}
	if !strings.Contains(stderr.String(), "version") {
		t.Errorf("error does not name the version: %s", stderr.String())
	}

	garbage := filepath.Join(dir, "garbage")
	if err := os.WriteFile(garbage, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	stderr.Reset()
	if code := run([]string{"-flight", garbage}, &stdout, &stderr); code == 0 {
		t.Fatal("garbage accepted")
	}
}

// TestRecordReplaySmoke keeps the original record→replay path alive
// through the run() seam.
func TestRecordReplaySmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-record", "BLESS", "-play", "SB", "-cycles", "300", "-rate", "0.04"}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("replay exited %d: %s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "recorded BLESS") || !strings.Contains(out, "replayed into SB") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}
