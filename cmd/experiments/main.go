// Command experiments regenerates every table and figure of the
// paper's evaluation (§5) plus the reproduction's ablations, printing
// each as an aligned text table and optionally writing .txt/.csv files.
//
// Usage:
//
//	experiments [-scale tiny|quick|full] [-fig all|table1|fig5|fig6|fig7|apps|ablations|extensions|faults|wcta] [-out DIR]
//	            [-cache-dir DIR] [-no-cache] [-shards N]
//	            [-http ADDR] [-progress] [-probe-dir DIR] [-probe-every N]
//
// -shards N steps every synthetic point's mesh as N parallel tiles
// (see DESIGN.md §17) — bit-identical to serial stepping, so tables,
// cache keys and golden outputs are unchanged; it only helps wall-clock
// on the big-mesh sweeps (ablations at -scale full).
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
// still completes; the process exits nonzero if anything failed.
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
	"os"
	"path/filepath"
	"strings"
	"time"

	"surfbless/internal/experiments"
	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/textplot"
)

func main() { os.Exit(mainExperiments()) }

func mainExperiments() int {
	scaleName := flag.String("scale", "quick", "simulation scale: tiny, quick or full")
	fig := flag.String("fig", "all", "which experiment: all, table1, fig3, fig5, fig6, fig7, apps, ablations, extensions, faults, wcta")
	out := flag.String("out", "", "directory to write .txt and .csv outputs (optional)")
	cacheDir := flag.String("cache-dir", filepath.Join("results", ".simcache"), "result-cache directory")
	noCache := flag.Bool("no-cache", false, "run every simulation fresh")
	shards := flag.Int("shards", 1, "mesh tiles stepped in parallel per synthetic point (bit-identical to serial)")
	httpAddr := flag.String("http", "", "serve /progress, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	progress := flag.Bool("progress", false, "print a structured progress line to stderr every 5s")
	probeDir := flag.String("probe-dir", "", "write probed Fig. 5 time series (JSONL) and heatmaps (CSV) into this directory")
	probeEvery := flag.Int64("probe-every", probe.DefaultEvery, "probe bucket width in cycles for -probe-dir")
	flag.Parse()

	sc, err := scaleByName(*scaleName)
	if err != nil {
		fatal(err)
	}
	if *shards < 1 {
		fatal(fmt.Errorf("-shards %d, need ≥ 1", *shards))
	}
	experiments.SetShards(*shards)
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		// Failed runs (WCTA conformance violations) leave forensic
		// flight-recorder dumps next to the figure outputs; replay them
		// with `replay -flight FILE`.
		experiments.SetFlightDir(*out)
	}
	var cache *simcache.Cache
	if !*noCache {
		if cache, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			fatal(err)
		}
		experiments.SetCache(cache)
		defer func() {
			fmt.Fprintf(os.Stderr, "cache (%s): %v\n", *cacheDir, cache.Stats())
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
			fatal(err)
		}
		defer srv.Close() //nolint:errcheck // releases the listener on the way out
		fmt.Fprintf(os.Stderr, "introspection: http://%s/progress (metrics at /metrics)\n", srv.Addr())
	}
	if *progress {
		stop := g.Report(os.Stderr, 5*time.Second)
		defer stop()
	}

	// Per-experiment isolation: one failing figure (error or panic)
	// must not sink a multi-hour batch.  Each experiment is retried
	// once, then recorded as failed and skipped; the exit code reports
	// the damage at the end.
	var failed []string
	run := func(name string, f func() ([]*textplot.Table, error)) {
		if *fig != "all" && *fig != name {
			return
		}
		g.SetStage(name)
		start := time.Now()
		tabs, err := runIsolated(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed (%v), retrying once\n", name, err)
			tabs, err = runIsolated(f)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s failed twice: %v — skipping\n", name, err)
			failed = append(failed, name)
			return
		}
		for _, t := range tabs {
			fmt.Println(t.String())
			if *out != "" {
				base := filepath.Join(*out, name+"_"+slug(t.Title))
				if err := os.WriteFile(base+".txt", []byte(t.String()), 0o644); err != nil {
					fatal(err)
				}
				if err := os.WriteFile(base+".csv", []byte(t.CSV()), 0o644); err != nil {
					fatal(err)
				}
			}
		}
		fmt.Fprintf(os.Stderr, "[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	run("table1", func() ([]*textplot.Table, error) {
		return []*textplot.Table{experiments.Table1()}, nil
	})
	if *fig == "all" || *fig == "fig3" {
		text := experiments.Fig3Text()
		fmt.Println(text)
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, "fig3_wave_pattern.txt"), []byte(text), 0o644); err != nil {
				fatal(err)
			}
		}
	}
	run("fig5", func() ([]*textplot.Table, error) {
		r, err := experiments.Fig5(sc)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	})
	run("fig6", func() ([]*textplot.Table, error) {
		r, err := experiments.Fig6(sc)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	})
	run("fig7", func() ([]*textplot.Table, error) {
		r, err := experiments.Fig7(sc)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	})
	run("apps", func() ([]*textplot.Table, error) {
		r, err := experiments.Apps(sc)
		if err != nil {
			return nil, err
		}
		tabs := r.Tables()
		fmt.Fprintf(os.Stderr, "SB exec penalty vs WH: %+.2f%% (paper: +3.23%%)\n", r.SBExecPenalty()*100)
		fmt.Fprintf(os.Stderr, "SB energy saving vs WH: %.1f%% (paper: 53.6%%)\n", r.SBEnergySaving()*100)
		return tabs, nil
	})
	run("ablations", func() ([]*textplot.Table, error) {
		var tabs []*textplot.Table
		ws, err := experiments.AblationWaveSets(sc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, experiments.WaveSetTable(ws))
		rt, err := experiments.AblationRouting(sc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, experiments.RoutingTable(rt))
		ms, err := experiments.AblationMeshSweep(sc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, experiments.MeshTable(ms))
		return tabs, nil
	})
	run("faults", func() ([]*textplot.Table, error) {
		r, err := experiments.ConfinementUnderFaults(sc)
		if err != nil {
			return nil, err
		}
		return r.Tables(), nil
	})
	run("wcta", func() ([]*textplot.Table, error) {
		rows, err := experiments.WCTAConformance(sc)
		if err != nil {
			return nil, err
		}
		return []*textplot.Table{experiments.WCTATable(rows)}, nil
	})
	run("extensions", func() ([]*textplot.Table, error) {
		var tabs []*textplot.Table
		bl, err := experiments.ExtensionBufferless(sc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, experiments.BufferlessTable(bl))
		pr, err := experiments.ExtensionPatterns(sc)
		if err != nil {
			return nil, err
		}
		tabs = append(tabs, experiments.PatternTable(pr))
		return tabs, nil
	})
	if *probeDir != "" {
		g.SetStage("fig5-probe")
		start := time.Now()
		if err := experiments.Fig5Probe(sc, *probeEvery, *probeDir); err != nil {
			fatal(fmt.Errorf("fig5 probe: %w", err))
		}
		fmt.Fprintf(os.Stderr, "[fig5-probe done in %v; series and heatmaps in %s]\n",
			time.Since(start).Round(time.Millisecond), *probeDir)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "experiments: %d experiment(s) failed: %s\n",
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
