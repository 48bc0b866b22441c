package main

import (
	"io"
	"strings"
	"testing"
)

func TestParseBench(t *testing.T) {
	b, ok := parseBench("BenchmarkStepSB-8   \t 1000000\t      1234 ns/op\t        64.00 routers/cycle")
	if !ok {
		t.Fatal("line not recognized")
	}
	if b.Name != "BenchmarkStepSB" {
		t.Errorf("name = %q (GOMAXPROCS suffix must be stripped)", b.Name)
	}
	if b.Iters != 1000000 || b.NsPerOp != 1234 {
		t.Errorf("iters/ns = %d/%v", b.Iters, b.NsPerOp)
	}
	if b.Metrics["routers/cycle"] != 64 {
		t.Errorf("metrics = %v", b.Metrics)
	}

	for _, line := range []string{
		"PASS",
		"ok  \tsurfbless\t0.1s",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 12 ns/op",
	} {
		if _, ok := parseBench(line); ok {
			t.Errorf("line %q wrongly parsed as a benchmark", line)
		}
	}
}

func TestHeaderLine(t *testing.T) {
	k, v, ok := headerLine("cpu: Intel(R) Xeon(R)")
	if !ok || k != "cpu" || v != "Intel(R) Xeon(R)" {
		t.Errorf("headerLine = %q %q %v", k, v, ok)
	}
	if _, _, ok := headerLine("BenchmarkX-8 1 2 ns/op"); ok {
		t.Error("benchmark line parsed as header")
	}
}

func TestProbeOverhead(t *testing.T) {
	benches := []Bench{
		{Name: "BenchmarkStepSB", NsPerOp: 5000},
		{Name: "BenchmarkStepSBOverhead", NsPerOp: 5100,
			Metrics: map[string]float64{"probed/unprobed": 1.02, "routers/cycle": 64}},
		{Name: "BenchmarkStepWHOverhead", NsPerOp: 4200,
			Metrics: map[string]float64{"probed/unprobed": 1.05}},
		{Name: "BenchmarkStepSurfOverhead", NsPerOp: 3600,
			Metrics: map[string]float64{"probed/unprobed": 1.2}},
		{Name: "BenchmarkStepCHIPPEROverhead", NsPerOp: 7000,
			Metrics: map[string]float64{"routers/cycle": 64}}, // no ratio metric
		{Name: "BenchmarkSystemCycle", NsPerOp: 999},
	}
	ratios := probeOverhead(benches)
	for model, want := range map[string]float64{"SB": 1.02, "WH": 1.05, "Surf": 1.2} {
		if got := ratios[model]; got != want {
			t.Errorf("ratio[%s] = %v, want %v", model, got, want)
		}
	}
	if len(ratios) != 3 {
		t.Errorf("ratios %v, want exactly SB, WH and Surf", ratios)
	}
	if _, ok := ratios["CHIPPER"]; ok {
		t.Error("Overhead entry without a probed/unprobed metric got a ratio")
	}

	if err := gateProbe(ratios, 1.25, io.Discard); err != nil {
		t.Errorf("all ratios within 1.25x budget, yet: %v", err)
	}
	err := gateProbe(ratios, 1.10, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "Surf 1.200x") {
		t.Errorf("Surf at 1.2x passed a 1.10x gate: %v", err)
	}
	delete(ratios, "WH")
	err = gateProbe(ratios, 1.25, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkStepWHOverhead") {
		t.Errorf("missing WH ratio: gate error %v, want one naming BenchmarkStepWHOverhead", err)
	}
}

func TestProbeOverheadEmpty(t *testing.T) {
	if r := probeOverhead(nil); r != nil {
		t.Errorf("no benchmarks produced ratios %v", r)
	}
}
