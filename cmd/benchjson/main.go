// Command benchjson converts `go test -bench` output into a
// machine-readable JSON report, echoing the original output through so
// it still reads normally in a terminal or CI log.
//
// Usage:
//
//	go test -run='^$' -bench=. -benchtime=1x . | benchjson -o BENCH_2026-08-05.json
//
// Every "Benchmark..." result line becomes one entry with the
// benchmark name (GOMAXPROCS suffix stripped), iteration count,
// ns/op, and any extra b.ReportMetric metrics keyed by unit.  The
// surrounding goos/goarch/pkg header lines are captured too, so a
// report is self-describing when diffing runs across machines.
//
// Probe-overhead gate: a BenchmarkStep<M>Overhead entry reporting a
// "probed/unprobed" metric (the interleaved twin-rig benchmark, robust
// to machine drift) contributes that metric to the report's
// probe_overhead map.  -gate-probe MAX additionally enforces the
// observability budget: SB, WH and Surf must all have a measured ratio
// and every ratio must stay ≤ MAX, or the command exits 1 — this is
// what `make probe-overhead` runs in CI.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark result line.
type Bench struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the top-level JSON document.
type Report struct {
	Date       string            `json:"date"`
	GoVersion  string            `json:"go_version"`
	Env        map[string]string `json:"env,omitempty"` // goos, goarch, pkg, cpu
	Benchmarks []Bench           `json:"benchmarks"`
	// ProbeOverhead maps each fabric with a BenchmarkStep<M>Overhead
	// entry to its interleaved probed/unprobed ratio.
	ProbeOverhead map[string]float64 `json:"probe_overhead,omitempty"`
}

// gatedModels are the fabrics whose probed Step overhead is enforced
// by -gate-probe (the paper's models; CHIPPER/RUNAHEAD extensions are
// reported but not gated).
var gatedModels = []string{"SB", "WH", "Surf"}

func main() {
	out := flag.String("o", "", "write the JSON report to this file (default stdout only)")
	gate := flag.Float64("gate-probe", 0, "fail if any SB/WH/Surf probed-Step ratio exceeds this (0 disables)")
	flag.Parse()

	rep := Report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		Env:       map[string]string{},
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line) // echo through
		if k, v, ok := headerLine(line); ok {
			rep.Env[k] = v
			continue
		}
		if b, ok := parseBench(line); ok {
			rep.Benchmarks = append(rep.Benchmarks, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	rep.ProbeOverhead = probeOverhead(rep.Benchmarks)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "" {
		os.Stdout.Write(buf)
	} else {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(rep.Benchmarks), *out)
	}
	if *gate > 0 {
		if err := gateProbe(rep.ProbeOverhead, *gate, os.Stderr); err != nil {
			fatal(err)
		}
	}
}

// probeOverhead returns probed/unprobed Step ratios keyed by model:
// the "probed/unprobed" metric of each BenchmarkStep<M>Overhead entry
// (the interleaved twin-rig measurement).
func probeOverhead(benches []Bench) map[string]float64 {
	ratios := map[string]float64{}
	for _, b := range benches {
		model, ok := strings.CutSuffix(b.Name, "Overhead")
		if !ok {
			continue
		}
		r, ok := b.Metrics["probed/unprobed"]
		if !ok || r <= 0 {
			continue
		}
		ratios[strings.TrimPrefix(model, "BenchmarkStep")] = r
	}
	if len(ratios) == 0 {
		return nil
	}
	return ratios
}

// gateProbe enforces the observability budget: every gated model must
// have a measured ratio, and none may exceed maxRatio.
func gateProbe(ratios map[string]float64, maxRatio float64, w io.Writer) error {
	var over []string
	for _, m := range gatedModels {
		r, ok := ratios[m]
		if !ok {
			return fmt.Errorf("gate-probe: no BenchmarkStep%sOverhead probed/unprobed ratio in the input", m)
		}
		fmt.Fprintf(w, "benchjson: probe overhead %-5s %.3fx (budget %.2fx)\n", m, r, maxRatio)
		if r > maxRatio {
			over = append(over, fmt.Sprintf("%s %.3fx", m, r))
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("gate-probe: probed Step exceeds %.2fx budget: %s", maxRatio, strings.Join(over, ", "))
	}
	return nil
}

// headerLine recognizes the goos/goarch/pkg/cpu preamble.
func headerLine(line string) (key, value string, ok bool) {
	for _, k := range []string{"goos", "goarch", "pkg", "cpu"} {
		if strings.HasPrefix(line, k+":") {
			return k, strings.TrimSpace(strings.TrimPrefix(line, k+":")), true
		}
	}
	return "", "", false
}

// parseBench parses one result line:
//
//	BenchmarkStepSB-8   1000000   1234 ns/op   64.00 routers/cycle
//
// i.e. name, iteration count, then (value, unit) pairs.
func parseBench(line string) (Bench, bool) {
	if !strings.HasPrefix(line, "Benchmark") {
		return Bench{}, false
	}
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 {
		return Bench{}, false
	}
	name := f[0]
	if i := strings.LastIndex(name, "-"); i > 0 {
		name = name[:i] // strip the GOMAXPROCS suffix
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Bench{}, false
	}
	b := Bench{Name: name, Iters: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Bench{}, false
		}
		if f[i+1] == "ns/op" {
			b.NsPerOp = v
		} else {
			b.Metrics[f[i+1]] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return b, true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchjson:", err)
	os.Exit(1)
}
