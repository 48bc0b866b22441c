package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"surfbless/internal/sim"
	"surfbless/internal/sweepsvc"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs rejects a metric list with a malformed or repeated name or
// unit.
func checkDefs(ds []metricDef) error {
	seen := map[string]bool{}
	for _, d := range ds {
		if !nameRE.MatchString(d.Name) {
			return fmt.Errorf("metric name %q outside [A-Za-z0-9_.-]{1,64} or not starting with a letter or digit", d.Name)
		}
		if !unitRE.MatchString(d.Unit) {
			return fmt.Errorf("metric %s: unit %q outside [A-Za-z0-9_/%%.-]{1,16}", d.Name, d.Unit)
		}
		if d.Better != "higher" && d.Better != "lower" {
			return fmt.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
		if seen[d.Name] {
			return fmt.Errorf("metric %s listed twice", d.Name)
		}
		seen[d.Name] = true
	}
	return nil
}

// The traced copy of sim.Run's loop must return exactly what sim.Run
// returns, for every model, serial and sharded.
func TestTracedCopyMatchesRun(t *testing.T) {
	for _, model := range []string{"WH", "BLESS", "Surf", "SB", "CHIPPER", "RUNAHEAD"} {
		for _, shards := range []int{0, 2} {
			t.Run(fmt.Sprintf("%s/shards=%d", model, shards), func(t *testing.T) {
				spec := sweepsvc.Spec{Model: model, Domains: 2, Cycles: 400, Seed: 7, Width: 4, Height: 4}
				o, err := spec.Options(0.25)
				if err != nil {
					t.Fatal(err)
				}
				o.Shards = shards
				want, err := simDigest(sim.Run(o))
				if err != nil {
					t.Fatal(err)
				}
				res, st, err := tracedSim(o, true)
				got, err := simDigest(res, err)
				if err != nil {
					t.Fatal(err)
				}
				if got != want {
					t.Fatalf("traced copy digest %.12s, sim.Run %.12s", got, want)
				}
				if st.cycles != res.Cycles || int64(len(st.stepNS)) != st.cycles || st.injects == 0 {
					t.Fatalf("trace counted %d steps (%d samples), %d injects for %d cycles",
						st.cycles, len(st.stepNS), st.injects, res.Cycles)
				}
			})
		}
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestQuantileTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	for _, c := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 990, false},
		{100, 0.90, 90, true},
		{99, 0.90, 90, false},
		{20, 0.50, 10, true},
		{19, 0.50, 10, false},
		{0, 0.50, 0, false},
	} {
		v, ok := quantile(seq(c.n), c.q)
		if v != c.want || ok != c.ok {
			t.Errorf("quantile(1..%d, %g) = %g, %v; want %g, %v", c.n, c.q, v, ok, c.want, c.ok)
		}
	}
	out := map[string]float64{}
	percentiles(out, "x", seq(99), map[string]float64{"p50": 0.5, "p90": 0.9})
	if out["x.p50"] != 50 || out["x.p90"] != 0 || out["x.n"] != 99 {
		t.Errorf("percentiles(1..99) = %v; want p50 50, p90 unreported (0), n 99", out)
	}
}

// Metric names and units stay inside the benchmark contract's character
// sets, and BENCHMARK.json lists exactly the workloads and metrics this
// program prints.
func TestMetricNames(t *testing.T) {
	for _, bad := range []metricDef{
		{"-lead", "s", "lower"}, {"a b", "s", "lower"}, {strings.Repeat("x", 65), "s", "lower"},
		{"ok", "router-cycles/sec", "higher"}, {"ok", "µs", "lower"}, {"ok", "s", "faster"},
	} {
		if checkDefs([]metricDef{bad}) == nil {
			t.Errorf("checkDefs accepted %+v", bad)
		}
	}
	if err := checkDefs(endToEnd); err != nil {
		t.Fatal(err)
	}
	if err := checkDefs(perLayer()); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			metricDef
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
		if !nameRE.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, workloadNames)
	}
	var e2e []metricDef
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.metricDef)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, program %v", e2e, endToEnd)
	}
	if !slices.Equal(spec.PerLayer, perLayer()) {
		t.Errorf("BENCHMARK.json per_layer differs from the program's list")
	}
}

// An op whose output differs from its reference counts as failed.
func TestDigestMismatchCountsFailed(t *testing.T) {
	ops, err := simOps("t", []string{"SB"}, []float64{0.1},
		sweepsvc.Spec{Domains: 2, Cycles: 200, Seed: 3, Width: 4, Height: 4}, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ops[0].run()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		ref               string
		attempted, failed int
	}{
		{want, 2, 0},
		{strings.Repeat("0", 64), 2, 2},
		{"", 3, 0}, // no recorded digest: the traced copy runs as the reference
	} {
		b := newOpBench(ops, digests{Ops: map[string]string{ops[0].Name: c.ref}}, false, newTracer())
		for range 2 {
			if err := b.batch(plain); err != nil {
				t.Fatal(err)
			}
		}
		if attempted, failed, _ := b.verify(); attempted != c.attempted || failed != c.failed {
			t.Errorf("reference %.8q: %d attempted, %d failed; want %d, %d",
				c.ref, attempted, failed, c.attempted, c.failed)
		}
	}
}

// A sweep job's rows are checked one by one against the reference.
func TestCompareCSV(t *testing.T) {
	ref := sweepsvc.CSVHeader + "\n0.010,1,1,1,0.01,0,0,0,0,ok\n0.020,2,2,2,0.02,0,0,0,0,ok\n"
	for _, c := range []struct {
		got    string
		failed int
	}{
		{ref, 0},
		{strings.Replace(ref, "2,2,2", "2,2,3", 1), 1},
		{sweepsvc.CSVHeader + "\n0.010,1,1,1,0.01,0,0,0,0,ok\n", 1},
		{"", 2},
	} {
		attempted, failed, _ := compareCSV(ref, c.got)
		if attempted != 2 || failed != c.failed {
			t.Errorf("compareCSV(%q) = %d attempted, %d failed; want 2, %d", c.got, attempted, failed, c.failed)
		}
	}
}

// A requeued lease fails an op even when every row comes out right.
func TestRequeueCountsFailed(t *testing.T) {
	ref := sweepsvc.CSVHeader + "\n0.010,1,1,1,0.01,0,0,0,0,ok\n"
	for _, requeues := range []int{0, 2} {
		b := &sweepBench{specs: []sweepsvc.Spec{{Model: "SB"}}, refs: []string{ref},
			runs: []sweepRun{{csv: []string{ref},
				counters: map[string]float64{"surfbless_sweepd_requeues_total": float64(requeues)}}}}
		if attempted, failed, _ := b.verify(); attempted != 1 || failed != requeues {
			t.Errorf("%d requeues: %d attempted, %d failed; want 1, %d", requeues, attempted, failed, requeues)
		}
	}
}

// The in-process service runs a small job set to the serial reference's
// CSVs, merging the twin and serving the resubmission from the store.
func TestServiceJobSet(t *testing.T) {
	var specs []sweepsvc.Spec
	for _, m := range []string{"WH", "SB"} {
		specs = append(specs, sweepsvc.Spec{Model: m, Domains: 2, From: 0.05, To: 0.15, Step: 0.05,
			Cycles: 200, Seed: 5, Width: 4, Height: 4})
	}
	svc, err := startService(t.TempDir(), 5, newSweepRecorder(newTracer()))
	if err != nil {
		t.Fatal(err)
	}
	run, err := svc.runJobs(specs)
	if cerr := svc.close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(run.csv) != len(specs)+2 || run.rows != 3*(len(specs)+2) || run.rc <= 0 {
		t.Fatalf("%d CSVs, %d rows, %d router-cycles", len(run.csv), run.rows, run.rc)
	}
	for j, got := range run.csv {
		sp := specs[0]
		if j < len(specs) {
			sp = specs[j]
		}
		var ref strings.Builder
		if _, err := (&sweepsvc.Runner{}).SerialCSV(context.Background(), sp, &ref); err != nil {
			t.Fatal(err)
		}
		if _, failed, err := compareCSV(ref.String(), got); failed != 0 {
			t.Errorf("job %d: %v", j, err)
		}
	}
	c := run.counters
	if c["surfbless_sweepd_singleflight_merged_total"] != 3 || c["surfbless_sweepd_store_hits_total"] != 3 ||
		c["surfbless_sweepd_leases_granted_total"] != 6 {
		t.Errorf("counters %v: want 3 merged, 3 store hits, 6 leases", c)
	}
}
