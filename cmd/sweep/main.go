// Command sweep runs an injection-rate sweep for one network model and
// emits the latency/throughput curve as CSV on stdout — the raw data
// behind load-latency plots like Fig. 7.
//
// Usage:
//
//	sweep [-model SB] [-domains 2] [-from 0.01] [-to 0.3] [-step 0.02]
//	      [-cycles 10000] [-seed 1] [-workers 1]
//	      [-cache-dir DIR] [-no-cache]
//	      [-faults FILE] [-checkpoint FILE] [-resume]
//	      [-attempts N] [-point-timeout DUR]
//	      [-remote ADDR]
//	      [-http ADDR] [-progress] [-trace FILE] [-spans FILE]
//	      [-probe-dir DIR] [-probe-every N] [-flight-dir DIR]
//
// -workers N simulates up to N points concurrently.  Every point is an
// isolated deterministic simulation and rows are emitted in rate order
// regardless of completion order, so the CSV is byte-identical to a
// serial (-workers 1) sweep.
//
// -remote ADDR submits the sweep to a sweepd coordinator (see
// cmd/sweepd) instead of simulating locally, streams each row as the
// worker fleet finishes it — the coordinator answers a rows request
// when the job's done count changes — and prints the same CSV the same
// flags produce locally, byte for byte.
//
// Points are cached content-addressed under -cache-dir (default
// results/.simcache), shared with cmd/experiments; -no-cache forces
// fresh simulations.
//
// Robustness: -faults FILE arms a deterministic fault plan (JSON; see
// internal/fault and DESIGN.md §11) for every point, and the CSV gains
// dropped/retransmits/status columns.  Each point runs through
// sweepsvc.Runner.RunPoint, the executor the sweepworker fleet uses,
// and is isolated — a failing simulation is retried under seeded
// exponential backoff with jitter up to -attempts executions (default
// 2, preserving the old retry-once budget), then emitted as an error
// row while the sweep continues (exit code 1 at the end); points that
// needed retries carry "; attempts=N" in their status cell.
// -point-timeout bounds one point's wall-clock simulation time
// (cancellation is plumbed through the simulator, and a run that ends
// past its bound times out too); an expired timeout is retryable like
// any failure.  A point that livelocks or trips a
// router invariant is emitted as a "degraded" row with its partial
// statistics.
//
// -checkpoint FILE is a sweepd coordinator WAL (DESIGN.md §16.3): the
// sweep is submitted to it as a job and every row is journaled,
// fsync'd, as it is printed.  After an interrupt, rerunning with
// -resume replays the rows of every job the journal holds, matched by
// point fingerprint — a wider range replays the overlap — and
// re-simulates the rest, failed points included.  A checkpoint written
// in the older one-object-per-point JSONL format reads as undecodable
// lines, so its points are simulated again.  Without -resume the file
// starts empty.
//
// Observability: -http ADDR serves /progress (JSON point counts and
// ETA), /debug/vars and /debug/pprof/* while the sweep runs; -progress
// prints one structured stderr line per completed point.  -trace FILE
// writes a packet lifecycle trace per point (FILE gains a _r<rate>
// suffix so points do not interleave); -spans FILE writes a Chrome
// trace (Perfetto) JSON per point the same way — load it at
// https://ui.perfetto.dev to see every packet's hop-by-hop timeline.
// -probe-dir DIR taps every point with a probe.Series and writes its
// per-interval time-series JSONL and heatmap CSV files there.
// -flight-dir DIR taps every point with a flight recorder: a point that
// degrades (watchdog, recovered invariant) dumps its last cycles of
// events there for `replay -flight`.  Traced, probed, span-exported or
// recorded points always simulate — the result cache and the
// checkpoint are bypassed for them.  Each attempt's files are closed
// whatever its outcome, so a timed-out point still leaves a loadable
// span file.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/parmap"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
	"surfbless/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command behind a testable seam: flags in, CSV out,
// exit code back.  The parity test drives it directly with -workers 1
// and -workers N and compares stdout byte for byte.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	model := fs.String("model", "SB", "network model: WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD (any case)")
	domains := fs.Int("domains", 2, "number of interference domains")
	from := fs.Float64("from", 0.01, "first total injection rate")
	to := fs.Float64("to", 0.30, "last total injection rate")
	step := fs.Float64("step", 0.02, "rate increment")
	cycles := fs.Int64("cycles", 10000, "measured cycles per point")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "points simulated concurrently (rows stay in rate order)")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "result-cache directory")
	noCache := fs.Bool("no-cache", false, "run every simulation fresh")
	attempts := fs.Int("attempts", sweepsvc.DefaultMaxAttempts, "per-point execution budget (1 = no retry)")
	pointTimeout := fs.Duration("point-timeout", 0, "wall-clock bound per point, e.g. 30s (0 = none)")
	remote := fs.String("remote", "", "submit to a sweepd coordinator at this host:port instead of simulating locally")
	httpAddr := fs.String("http", "", "serve /progress, /debug/vars and /debug/pprof on this address (e.g. 127.0.0.1:6060)")
	progress := fs.Bool("progress", false, "print a structured progress line to stderr after every point")
	traceFile := fs.String("trace", "", "write a packet lifecycle trace per point (suffixed _r<rate>)")
	spansFile := fs.String("spans", "", "write a Chrome trace (Perfetto) JSON per point (suffixed _r<rate>)")
	probeDir := fs.String("probe-dir", "", "write per-point time series (JSONL) and heatmaps (CSV) into this directory")
	probeEvery := fs.Int64("probe-every", probe.DefaultEvery, "probe bucket width in cycles for -probe-dir")
	flightDir := fs.String("flight-dir", "", "write flight-recorder dumps of degraded points into this directory")
	faultsFile := fs.String("faults", "", "fault plan JSON applied to every point (see internal/fault)")
	ckptPath := fs.String("checkpoint", "", "journal completed points to this coordinator WAL")
	resume := fs.Bool("resume", false, "replay completed points from -checkpoint instead of re-simulating them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	m, err := config.ParseModel(*model)
	if err != nil {
		return fatal(err)
	}
	if *workers < 1 {
		return fatal(fmt.Errorf("-workers %d, need ≥ 1", *workers))
	}
	// The spec carries the timeout in whole milliseconds (what -remote
	// submits); a finer value would time out differently here and there.
	if *pointTimeout%time.Millisecond != 0 {
		return fatal(fmt.Errorf("-point-timeout %v is not a whole number of milliseconds", *pointTimeout))
	}

	var plan *fault.Plan
	if *faultsFile != "" {
		base := config.Default(m)
		if plan, err = fault.LoadPlan(*faultsFile, base.Width, base.Height); err != nil {
			return fatal(err)
		}
	}

	// The spec is the same structure a sweepd job is made of: local and
	// remote sweeps share one canonical flag→options expansion, which
	// is what keeps their CSVs byte-identical.
	spec := sweepsvc.Spec{
		Model: *model, Domains: *domains,
		From: *from, To: *to, Step: *step,
		Cycles: *cycles, Seed: *seed,
		Faults:         plan,
		PointTimeoutMS: pointTimeout.Milliseconds(),
		MaxAttempts:    *attempts,
	}
	if err := spec.Validate(); err != nil {
		return fatal(err)
	}

	if *remote != "" {
		return runRemote(spec, *remote, backoff.Policy{Seed: *seed}, *progress, stdout, stderr)
	}

	var cache *simcache.Cache
	if !*noCache {
		if cache, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			return fatal(err)
		}
	}
	if *probeDir != "" {
		if err := os.MkdirAll(*probeDir, 0o755); err != nil {
			return fatal(err)
		}
	}
	if *flightDir != "" {
		if err := os.MkdirAll(*flightDir, 0o755); err != nil {
			return fatal(err)
		}
	}
	// Retry and flight-dump lines come from the worker goroutines.
	stderr = &lockedWriter{w: stderr}

	var journal *sweepsvc.Coordinator
	var job string
	var replay []string // replay[i] is point i's journaled row ("" = simulate)
	if *resume && *ckptPath == "" {
		return fatal(fmt.Errorf("-resume needs -checkpoint FILE"))
	}
	if *ckptPath != "" {
		c, id, rows, err := openCheckpoint(*ckptPath, *resume, spec, stderr)
		if err != nil {
			return fatal(err)
		}
		defer c.Close()
		// Observed points always simulate — a replayed row would skip the
		// files the flags asked for — and journal nothing.
		if *traceFile == "" && *spansFile == "" && *probeDir == "" && *flightDir == "" {
			journal, job, replay = c, id, rows
		}
	}

	rates := spec.Rates()

	g := probe.NewProgress()
	g.SetStage("sweep")
	g.SetTotal(int64(len(rates)))
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
			return fatal(err)
		}
		defer srv.Close() //nolint:errcheck // releases the listener on the way out
		fmt.Fprintf(stderr, "introspection: http://%s/progress (metrics at /metrics)\n", srv.Addr())
	}

	// Every point runs through the executor the sweepworker fleet uses,
	// with the same seeded-backoff retries, so a local and a remote sweep
	// degrade the same way.
	policy := backoff.Policy{Seed: *seed}
	runner := &sweepsvc.Runner{
		Cache:  cache,
		Policy: policy,
		OnRetry: func(rate float64, attempt int, err error) {
			fmt.Fprintf(stderr, "sweep: rate %.3f attempt %d failed (%v), backing off %v\n",
				rate, attempt, err, policy.Delay(attempt-1).Round(time.Millisecond))
		},
		Attach: pointFiles{
			model: m,
			trace: *traceFile, spans: *spansFile,
			probeDir: *probeDir, probeEvery: *probeEvery,
			flightDir: *flightDir, stderr: stderr,
		}.attach,
	}

	compute := func(i int, rate float64) (sweepsvc.Execution, error) {
		if replay != nil && replay[i] != "" {
			return sweepsvc.Execution{Row: replay[i]}, nil
		}
		return runner.RunPoint(context.Background(), spec, rate), nil
	}

	fmt.Fprintln(stdout, sweepsvc.CSVHeader)
	failures := 0
	parmap.Stream(rates, *workers, compute, func(i int, exec sweepsvc.Execution, _ error) {
		fmt.Fprintln(stdout, exec.Row)
		if exec.Failed {
			failures++
			fmt.Fprintf(stderr, "sweep: rate %.3f failed: %s — continuing\n", rates[i], exec.Status)
		}
		// The emitter journals, so the fsync overlaps the workers'
		// simulations instead of stalling one of them.
		if journal != nil && replay[i] == "" {
			if _, err := journal.CompletePoint(sweepsvc.Completion{
				Job: job, Point: i,
				Row: exec.Row, Status: exec.Status, Attempts: exec.Attempts, Failed: exec.Failed,
			}); err != nil {
				fmt.Fprintf(stderr, "sweep: checkpoint: %v\n", err)
			}
		}
		g.Add(1)
		if *progress {
			fmt.Fprintln(stderr, g.Line())
		}
	})
	if cache != nil {
		fmt.Fprintf(stderr, "cache (%s): %v\n", *cacheDir, cache.Stats())
	}
	if failures > 0 {
		fmt.Fprintf(stderr, "sweep: %d point(s) failed\n", failures)
		return 1
	}
	return 0
}

// openCheckpoint opens -checkpoint FILE as a coordinator WAL and submits
// the sweep to it as a job, whose points the caller completes without
// leases.  Without -resume the file starts empty.  With it, replay
// holds, for each point of the new job, the row any journaled job
// recorded under the point's fingerprint — failed rows excepted, so
// those points run again.
func openCheckpoint(path string, resume bool, spec sweepsvc.Spec, stderr io.Writer) (
	c *sweepsvc.Coordinator, job string, replay []string, err error) {
	if !resume {
		// A fresh sweep must not replay an unrelated one's rows.
		if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
			return nil, "", nil, err
		}
	}
	if c, err = sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: path}); err != nil {
		return nil, "", nil, err
	}
	done := make(map[string]string)
	for _, id := range c.Jobs() {
		rows, _ := c.Rows(id) // Jobs lists only admitted jobs
		for _, r := range rows {
			if r.Done && !r.Failed && r.Fingerprint != "" {
				done[r.Fingerprint] = r.Row
			}
		}
	}
	if resume {
		fmt.Fprintf(stderr, "resume: %d point(s) already journaled in %s", len(done), path)
		if n := c.Skipped(); n > 0 {
			fmt.Fprintf(stderr, " (%d torn line(s) dropped)", n)
		}
		fmt.Fprintln(stderr)
	}
	if job, _, err = c.SubmitJob(spec); err != nil {
		c.Close()
		return nil, "", nil, err
	}
	points, _ := c.Rows(job) // the job was just admitted
	replay = make([]string, len(points))
	for i, p := range points {
		replay[i] = done[p.Fingerprint]
	}
	return c, job, replay, nil
}

// remoteRPCAttempts bounds each remote rows request's retries through a
// coordinator outage — the same budget the workers run with, so the
// client survives any bounce the fleet survives.
const remoteRPCAttempts = 8

// remotePollHook, when non-nil, runs after every rows fetch and before
// freshly completed rows are printed — the seam the regression test
// uses to bounce the coordinator mid-stream.
var remotePollHook func(done, total int)

// runRemote submits the spec to a sweepd coordinator and streams the
// CSV as points complete: the header first, then each row as soon as
// every earlier rate is also done, so stdout is byte-identical to a
// local sweep.  Each rows request names the last answer's done count
// and is answered when that count changes, one request per change.
// Requests ride through transient coordinator outages (a crash-restart
// mid-sweep loses no journaled work, so giving up would abandon a live
// job).  Printed rows are deduplicated by point fingerprint, not row
// index: a bounce with a torn WAL tail can revert a completed point to
// pending and re-complete it later, so indexes may go backwards
// between answers while fingerprints stay stable.
func runRemote(spec sweepsvc.Spec, addr string, policy backoff.Policy, progress bool, stdout, stderr io.Writer) int {
	client := sweepsvc.NewClient(addr)
	ctx := context.Background()
	job, points, err := client.Submit(ctx, spec)
	if err != nil {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}
	fmt.Fprintf(stderr, "remote: job %s (%d points) on %s\n", job, points, addr)
	fmt.Fprintln(stdout, sweepsvc.CSVHeader)
	printed := make(map[string]bool, points)
	next := 0  // rows[:next] have been streamed; rate order never regresses
	seen := -1 // the done count of the last answer; -1 asks for one at once
	for {
		rows, err := client.RowsWithRetry(ctx, policy, remoteRPCAttempts, job, seen)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		done, failed := sweepsvc.CountDone(rows)
		if progress && done != seen {
			fmt.Fprintf(stderr, "remote: %d/%d done (%d failed)\n", done, len(rows), failed)
		}
		seen = done
		if remotePollHook != nil {
			remotePollHook(done, len(rows))
		}
		// Stream the contiguous done prefix.  The cursor keeps rate
		// order; the fingerprint set keeps idempotence when a bounce
		// replays completions the stream has already passed.
		for next < len(rows) && rows[next].Done {
			r := rows[next]
			next++
			key := r.Fingerprint
			if key == "" {
				key = fmt.Sprintf("point-%d", r.Point)
			}
			if printed[key] {
				continue
			}
			printed[key] = true
			fmt.Fprintln(stdout, r.Row)
		}
		if done == len(rows) {
			if failed > 0 {
				fmt.Fprintf(stderr, "sweep: %d point(s) failed\n", failed)
				return 1
			}
			return 0
		}
	}
}

// pointFiles is cmd/sweep's Runner.Attach hook: the per-point
// observability outputs a sweep can request — lifecycle trace,
// Chrome-trace spans, probe series/heatmaps, and flight-recorder dumps
// of degraded points.
type pointFiles struct {
	model      config.Model
	trace      string
	spans      string
	probeDir   string
	probeEvery int64
	flightDir  string
	stderr     io.Writer
}

// attach arms one attempt of the point at rate.  Every file it opens is
// closed by the returned finish whatever the run's outcome, so a failed
// or timed-out attempt still leaves a complete trace and a loadable
// span file; the series export and the flight dump follow only for a
// run that produced a row, the dump only when that run degraded.
func (f pointFiles) attach(rate float64, o *sim.Options) (func(error) error, error) {
	var files []io.Closer
	closeFiles := func() error {
		var errs []error
		for _, c := range files {
			errs = append(errs, c.Close())
		}
		return errors.Join(errs...)
	}
	if f.trace != "" {
		fh, err := os.Create(suffixed(f.trace, rate))
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(fh, trace.Header())
		tw := trace.New(fh)
		o.Taps = append(o.Taps, tw)
		files = append(files, tw)
	}
	if f.spans != "" {
		fh, err := os.Create(suffixed(f.spans, rate))
		if err != nil {
			closeFiles() //nolint:errcheck // the create error is the one to report
			return nil, err
		}
		pf := trace.NewPerfetto(fh)
		o.Taps = append(o.Taps, pf)
		files = append(files, pf)
	}
	var series *probe.Series
	if f.probeDir != "" {
		series = probe.NewSeries(f.probeEvery)
		o.Taps = append(o.Taps, series)
	}
	var rec *probe.FlightRecorder
	if f.flightDir != "" {
		rec = probe.NewFlightRecorder(0)
		o.Taps = append(o.Taps, rec)
	}
	cfg := o.Cfg
	return func(runErr error) error {
		cerr := closeFiles()
		var de *sim.DegradedError
		if runErr != nil && !errors.As(runErr, &de) {
			return runErr
		}
		if cerr != nil {
			return cerr
		}
		if de != nil && rec != nil {
			path := filepath.Join(f.flightDir, fmt.Sprintf("sweep_%v_r%.3f.flight.json", f.model, rate))
			d := rec.Dump(de.Reason, de.Cycle, cfg.Model.String(), cfg.Mesh(), cfg.Domains)
			if err := probe.WriteFile(path, d.WriteJSON); err != nil {
				return err
			}
			fmt.Fprintf(f.stderr, "sweep: rate %.3f degraded — flight dump: %s\n", rate, path)
		}
		if series != nil {
			base := fmt.Sprintf("%v_r%.3f", f.model, rate)
			if err := probe.WriteFile(filepath.Join(f.probeDir, "sweep_ts_"+base+".jsonl"), series.WriteTimeSeriesJSONL); err != nil {
				return err
			}
			if err := probe.WriteFile(filepath.Join(f.probeDir, "sweep_heat_"+base+".csv"), series.WriteHeatmapCSV); err != nil {
				return err
			}
		}
		return runErr
	}, nil
}

// lockedWriter serializes whole Write calls from concurrent goroutines.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(b)
}

// suffixed inserts _r<rate> before path's extension, so per-point
// trace files do not clobber each other.
func suffixed(path string, rate float64) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + fmt.Sprintf("_r%.3f", rate) + ext
}
