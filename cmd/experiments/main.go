// Command experiments regenerates every table and figure of the
// paper's evaluation (§5) plus the reproduction's ablations, printing
// each as an aligned text table and optionally writing .txt/.csv files.
//
// Usage:
//
//	experiments [-scale tiny|quick|full] [-fig all|table1|fig3|fig5|fig6|fig7|apps|ablations|extensions|faults|wcta] [-out DIR]
//	            [-cache-dir DIR] [-no-cache]
//	            [-http ADDR] [-progress] [-probe-dir DIR] [-probe-every N]
//
// Every experiment runs its simulation points in parallel on GOMAXPROCS
// workers.  Each point is an isolated deterministic run, so the tables
// are byte-identical however many cores there are.  An unknown -fig or
// -scale exits 1 before anything runs, and an unknown flag exits 2.
//
// "apps" runs the §5.2 full-system matrix that produces Figs. 8, 9 and
// 10 together.  At -scale full expect several minutes.  "faults" runs
// the robustness extension: the Fig. 5 victim/aggressor setup crossed
// with fault scenarios (see internal/fault and DESIGN.md §11).  "wcta"
// runs the analytical-bound conformance oracle: per-flow worst-case
// bounds from internal/wcta checked against observed p100 latencies
// (see DESIGN.md §14).
//
// Robustness: each experiment is isolated — a failure (or panic) is
// retried once, then reported and skipped so the rest of the batch
// still completes; the process exits nonzero if anything failed.  An
// output file that cannot be written stops the run with exit 1.
//
// Every simulation is a pure function of its options, so results are
// cached content-addressed under -cache-dir (default
// results/.simcache); regenerating an unchanged figure is near-instant
// on the second run.  -no-cache forces fresh simulations.
//
// Live introspection: -http ADDR serves /progress (JSON point counts
// and ETA), /debug/vars and /debug/pprof/* while the run is in flight;
// -progress prints a structured progress line to stderr every few
// seconds for headless runs.  -probe-dir DIR additionally re-runs the
// Fig. 5 interference experiment with a probe attached, writing
// per-interval time-series JSONL and heatmap CSV files into DIR
// (bucket width -probe-every cycles).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"surfbless/internal/experiments"
	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/textplot"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, tables
// out, exit code back.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	scaleName := fs.String("scale", "quick", "simulation scale: tiny, quick or full")
	fig := fs.String("fig", "all", "which experiment: all, table1, fig3, fig5, fig6, fig7, apps, ablations, extensions, faults, wcta")
	out := fs.String("out", "", "directory to write .txt and .csv outputs (optional)")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "result-cache directory")
	noCache := fs.Bool("no-cache", false, "run every simulation fresh")
	httpAddr := fs.String("http", "", "serve /progress, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	progress := fs.Bool("progress", false, "print a structured progress line to stderr every 5s")
	probeDir := fs.String("probe-dir", "", "write probed Fig. 5 time series (JSONL) and heatmaps (CSV) into this directory")
	probeEvery := fs.Int64("probe-every", probe.DefaultEvery, "probe bucket width in cycles for -probe-dir")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "experiments:", err)
		return 1
	}

	sc, err := scaleByName(*scaleName)
	if err != nil {
		return fail(err)
	}
	// The stages in output order.  fig3 is text, not a table: it has no
	// tables function and is printed and written on its own.
	stages := []struct {
		name   string
		tables func() ([]*textplot.Table, error)
	}{
		{"table1", func() ([]*textplot.Table, error) {
			return []*textplot.Table{experiments.Table1()}, nil
		}},
		{"fig3", nil},
		{"fig5", func() ([]*textplot.Table, error) {
			r, err := experiments.Fig5(sc)
			return r.Tables(), err
		}},
		{"fig6", func() ([]*textplot.Table, error) {
			r, err := experiments.Fig6(sc)
			return r.Tables(), err
		}},
		{"fig7", func() ([]*textplot.Table, error) {
			r, err := experiments.Fig7(sc)
			return r.Tables(), err
		}},
		{"apps", func() ([]*textplot.Table, error) {
			r, err := experiments.Apps(sc)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(stderr, "SB exec penalty vs WH: %+.2f%% (paper: +3.23%%)\n", r.SBExecPenalty()*100)
			fmt.Fprintf(stderr, "SB energy saving vs WH: %.1f%% (paper: 53.6%%)\n", r.SBEnergySaving()*100)
			return r.Tables(), nil
		}},
		{"ablations", func() ([]*textplot.Table, error) {
			ws, err := experiments.AblationWaveSets(sc)
			if err != nil {
				return nil, err
			}
			rt, err := experiments.AblationRouting(sc)
			if err != nil {
				return nil, err
			}
			ms, err := experiments.AblationMeshSweep(sc)
			if err != nil {
				return nil, err
			}
			return []*textplot.Table{experiments.WaveSetTable(ws), experiments.RoutingTable(rt), experiments.MeshTable(ms)}, nil
		}},
		{"faults", func() ([]*textplot.Table, error) {
			r, err := experiments.ConfinementUnderFaults(sc)
			return r.Tables(), err
		}},
		{"wcta", func() ([]*textplot.Table, error) {
			rows, err := experiments.WCTAConformance(sc)
			return []*textplot.Table{experiments.WCTATable(rows)}, err
		}},
		{"extensions", func() ([]*textplot.Table, error) {
			bl, err := experiments.ExtensionBufferless(sc)
			if err != nil {
				return nil, err
			}
			pr, err := experiments.ExtensionPatterns(sc)
			if err != nil {
				return nil, err
			}
			return []*textplot.Table{experiments.BufferlessTable(bl), experiments.PatternTable(pr)}, nil
		}},
	}
	known := *fig == "all"
	names := []string{"all"}
	for _, s := range stages {
		known = known || s.name == *fig
		names = append(names, s.name)
	}
	if !known {
		return fail(fmt.Errorf("unknown -fig %q (want %s; Figs. 8–10 come from apps)", *fig, strings.Join(names, ", ")))
	}

	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return fail(err)
		}
		// Failed runs (WCTA conformance violations) leave forensic
		// flight-recorder dumps next to the figure outputs; replay them
		// with `replay -flight FILE`.
		experiments.SetFlightDir(*out)
	}
	var cache *simcache.Cache
	if !*noCache {
		if cache, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			return fail(err)
		}
		experiments.SetCache(cache)
		defer func() {
			fmt.Fprintf(stderr, "cache (%s): %v\n", *cacheDir, cache.Stats())
		}()
	}

	g := probe.NewProgress()
	experiments.SetProgress(g)
	if cache != nil {
		g.SetCacheStats(func() (int64, int64) {
			s := cache.Stats()
			return s.Hits, s.Misses
		})
	}
	if *httpAddr != "" {
		metrics := probe.NewMetrics()
		if cache != nil {
			cache.ExposeMetrics(metrics)
		}
		srv, err := probe.Serve(*httpAddr, g, metrics)
		if err != nil {
			return fail(err)
		}
		defer srv.Close() //nolint:errcheck // releases the listener on the way out
		fmt.Fprintf(stderr, "introspection: http://%s/progress (metrics at /metrics)\n", srv.Addr())
	}
	if *progress {
		stop := g.Report(stderr, 5*time.Second)
		defer stop()
	}

	// Per-experiment isolation: one failing figure (error or panic)
	// must not sink a multi-hour batch.  Each experiment is retried
	// once, then recorded as failed and skipped; the exit code reports
	// the damage at the end.
	var failed []string
	for _, s := range stages {
		if *fig != "all" && *fig != s.name {
			continue
		}
		if s.tables == nil {
			text := experiments.Fig3Text()
			fmt.Fprintln(stdout, text)
			if *out != "" {
				if err := os.WriteFile(filepath.Join(*out, "fig3_wave_pattern.txt"), []byte(text), 0o644); err != nil {
					return fail(err)
				}
			}
			continue
		}
		g.SetStage(s.name)
		start := time.Now()
		tabs, err := runIsolated(s.tables)
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s failed (%v), retrying once\n", s.name, err)
			tabs, err = runIsolated(s.tables)
		}
		if err != nil {
			fmt.Fprintf(stderr, "experiments: %s failed twice: %v — skipping\n", s.name, err)
			failed = append(failed, s.name)
			continue
		}
		for _, t := range tabs {
			fmt.Fprintln(stdout, t.String())
			if *out != "" {
				base := filepath.Join(*out, s.name+"_"+slug(t.Title))
				if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
					return fail(err)
				}
				if err := os.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
					return fail(err)
				}
			}
		}
		fmt.Fprintf(stderr, "[%s done in %v]\n\n", s.name, time.Since(start).Round(time.Millisecond))
	}
	if *probeDir != "" {
		g.SetStage("fig5-probe")
		start := time.Now()
		if err := experiments.Fig5Probe(sc, *probeEvery, *probeDir); err != nil {
			return fail(fmt.Errorf("fig5 probe: %w", err))
		}
		fmt.Fprintf(stderr, "[fig5-probe done in %v; series and heatmaps in %s]\n",
			time.Since(start).Round(time.Millisecond), *probeDir)
	}
	if len(failed) > 0 {
		fmt.Fprintf(stderr, "experiments: %d experiment(s) failed: %s\n",
			len(failed), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// runIsolated runs one experiment behind a recover boundary so a
// driver panic is reported like any other error.
func runIsolated(f func() ([]*textplot.Table, error)) (tabs []*textplot.Table, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func scaleByName(name string) (experiments.Scale, error) {
	switch name {
	case "tiny":
		return experiments.Tiny(), nil
	case "quick":
		return experiments.Quick(), nil
	case "full":
		return experiments.Full(), nil
	default:
		return experiments.Scale{}, fmt.Errorf("unknown scale %q (want tiny, quick or full)", name)
	}
}

func slug(title string) string {
	s := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			return r
		default:
			return '_'
		}
	}, strings.ToLower(strings.TrimSpace(title)))
	for strings.Contains(s, "__") {
		s = strings.ReplaceAll(s, "__", "_")
	}
	s = strings.Trim(s, "_")
	if len(s) > 48 {
		s = s[:48]
	}
	return s
}
