// Command perfbench is the repository benchmark.  From one process it
// drives the simulator through its public entry points — sim.Run,
// system.Run and the sweepsvc coordinator, server, worker and client —
// checks every op's simulated output against a reference, measures host
// time only, and prints one JSON result line as its last line of
// output.  BENCHMARK.json at the repository root lists the workloads
// and metrics; README.md here says what each metric times and what it
// should move.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload synth-8x8 --seed 1 --seconds 20 --trace 0
//
// --trace 1 alternates traced and untraced batches, prints a per-layer
// self-time table and reports the per-layer metrics instead of the
// end-to-end ones; its spans are written under --work.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"time"
)

// setupPerBatch is how many times an untraced run measures its
// workload's set-up before each batch.  Spread over the measuring
// window rather than taken at its start, the samples ride out shifts in
// host load that last a few seconds.
const setupPerBatch = 2

// workloadNames are the workloads BENCHMARK.json lists.
var workloadNames = []string{"synth-8x8", "fullsys-apps", "sweep-service", "giant-32x32"}

// batchMode says what a batch measures.
type batchMode int

const (
	// plain batches give the end-to-end metrics; a traced run starts
	// with one to warm up.
	plain batchMode = iota
	// traced batches record spans and per-layer metrics.
	traced
	// baseline batches are untraced batches of a traced run: they give
	// the runtime counters and trace.overhead's denominator.
	baseline
)

// bench is one workload's run state.
type bench interface {
	// batch runs the workload's op set once.
	batch(mode batchMode) error
	// verify checks every output and counts ops attempted and failed.
	verify() (attempted, failed int, errs []error)
	endToEnd(out map[string]float64)
	perLayer(out map[string]float64)
	close() error
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	work     string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg runConfig
	fs.StringVar(&cfg.workload, "workload", "", "workload name")
	fs.Int64Var(&cfg.seed, "seed", recordedSeed, "workload seed; digests.json holds the references for the default")
	fs.IntVar(&cfg.seconds, "seconds", 10, "how long to measure")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.work, "work", ".bench_build", "directory for temporary service state and span files")
	setupOnly := fs.Bool("setup-only", false, "set the workload up, print ready, tear it down (set-up timing)")
	record := fs.String("record", "", "record the reference digests for the default seed into this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *traceFlag == 1
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := recordDigests(*record, cfg.work); err != nil {
			return fail(err)
		}
		return 0
	}
	if *traceFlag != 0 && *traceFlag != 1 || cfg.seconds < 1 {
		return fail(fmt.Errorf("--trace must be 0 or 1 and --seconds positive"))
	}
	if !slices.Contains(workloadNames, cfg.workload) {
		return fail(fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloadNames))
	}
	if *setupOnly {
		b, err := open(cfg, newTracer())
		if err != nil {
			return fail(err)
		}
		fmt.Fprintln(stdout, "ready", cpuTime().Nanoseconds())
		if err := b.close(); err != nil {
			return fail(err)
		}
		return 0
	}
	if err := measure(cfg, stdout, stderr); err != nil {
		return fail(err)
	}
	return 0
}

// open sets a workload up: everything before its first timed op.
func open(cfg runConfig, tr *tracer) (bench, error) {
	refs, err := loadDigests(cfg.seed)
	if err != nil {
		return nil, err
	}
	var ops []op
	switch cfg.workload {
	case "synth-8x8":
		ops, err = synthOps(cfg.seed)
	case "fullsys-apps":
		ops, err = appOps(cfg.seed)
	case "giant-32x32":
		ops, err = giantOps(cfg.seed)
	case "sweep-service":
		return newSweepBench(filepath.Join(cfg.work, "tmp"), cfg.seed, refs, tr)
	default:
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		return nil, err
	}
	return newOpBench(ops, refs, cfg.workload == "giant-32x32", tr), nil
}

// measure runs one workload for cfg.seconds and prints its result.
func measure(cfg runConfig, stdout, stderr io.Writer) error {
	tr := newTracer()
	b, err := open(cfg, tr)
	if err != nil {
		return err
	}
	defer b.close()

	// Closed batches until the window is used, at least two so that each
	// op runs twice.  A traced run warms up with a plain batch, then
	// alternates traced and baseline batches.
	minBatches := 2
	if cfg.trace {
		minBatches = 3
	}
	var setup []float64
	start := time.Now()
	for i := 0; i < minBatches || time.Since(start) < time.Duration(cfg.seconds)*time.Second; i++ {
		for j := 0; j < setupPerBatch && !cfg.trace; j++ {
			s, err := setupSeconds(cfg)
			if err != nil {
				return err
			}
			setup = append(setup, s)
		}
		mode := plain
		if cfg.trace && i > 0 {
			mode = []batchMode{baseline, traced}[i%2]
		}
		if err := b.batch(mode); err != nil {
			return err
		}
	}
	if err := b.close(); err != nil {
		return err
	}
	attempted, failed, errs := b.verify()
	for _, e := range errs {
		fmt.Fprintln(stderr, "perfbench: check:", e)
	}
	if len(errs) > 0 && failed == 0 {
		failed = 1 // a check that could not run fails the result
	}

	vals := map[string]float64{}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer()
		for _, d := range defs {
			vals[d.Name] = 0 // layers this workload does not exercise
		}
		b.perLayer(vals)
		printTable(stdout, cfg.workload, tr.table())
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := os.MkdirAll(cfg.work, 0o755); err != nil {
			return err
		}
		if err := tr.write(path); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		b.endToEnd(vals)
		vals["setup_s"] = median(setup)
		vals["peak_rss_mb"] = peakRSSMiB()
	}
	return emit(stdout, defs, vals, attempted, failed)
}

// setupSeconds is the CPU time a fresh process started with
// --setup-only has used when it prints its ready line: process start,
// runtime and package initialisation, and the workload's set-up (on
// sweep-service: store, WAL, server and worker).
func setupSeconds(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10),
		"--work", cfg.work, "--setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return 0, fmt.Errorf("set-up run: %w", err)
	}
	var ns int64
	if _, err := fmt.Sscanf(string(out), "ready %d\n", &ns); err != nil {
		return 0, fmt.Errorf("set-up run printed %q", out)
	}
	return float64(ns) / 1e9, nil
}
