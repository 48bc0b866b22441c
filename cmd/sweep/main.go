// Command sweep runs an injection-rate sweep for one network model and
// emits the latency/throughput curve as CSV on stdout — the raw data
// behind load-latency plots like Fig. 7.
//
// Usage:
//
//	sweep [-model SB] [-domains 2] [-from 0.01] [-to 0.3] [-step 0.02]
//	      [-cycles 10000] [-seed 1] [-workers 1] [-shards 1]
//	      [-cache] [-cache-dir DIR] [-no-cache]
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
// -shards N steps each point's mesh as N parallel tiles (see DESIGN.md
// §17) — useful for giant meshes where one point dominates wall-clock.
// Sharded stepping is bit-identical to serial, so the CSV, cache keys
// and checkpoint fingerprints are all unchanged.  Local runs only; a
// -remote fleet picks its own execution knobs.
//
// -remote ADDR submits the sweep to a sweepd coordinator (see
// cmd/sweepd) instead of simulating locally, polls until the worker
// fleet finishes it, and prints the coordinator-assembled CSV — which
// is byte-identical to what the same flags produce locally.
//
// Points are cached content-addressed under -cache-dir (default
// results/.simcache), shared with cmd/experiments; -no-cache forces
// fresh simulations.
//
// Robustness: -faults FILE arms a deterministic fault plan (JSON; see
// internal/fault and DESIGN.md §11) for every point, and the CSV gains
// dropped/retransmits/status columns.  Each point is isolated — a
// failing simulation is retried under seeded exponential backoff with
// jitter up to -attempts executions (default 2, preserving the old
// retry-once budget), then emitted as an error row while the sweep
// continues (exit code 1 at the end); points that needed retries carry
// "; attempts=N" in their status cell.  -point-timeout bounds one
// point's wall-clock simulation time (cancellation is plumbed through
// the simulator); an expired timeout is retryable like any failure.  A
// point that livelocks or trips a router invariant is emitted as a
// "degraded" row with its partial statistics.  -checkpoint FILE
// journals every completed point keyed by its cache fingerprint; after
// an interrupt, rerunning with -resume replays finished rows from the
// journal and re-simulates only the incomplete points.
//
// Observability: -http ADDR serves /progress (JSON point counts and
// ETA), /debug/vars and /debug/pprof/* while the sweep runs; -progress
// prints one structured stderr line per completed point.  -trace FILE
// writes a packet lifecycle trace per point (FILE gains a _r<rate>
// suffix so points do not interleave); -spans FILE writes a Chrome
// trace (Perfetto) JSON per point the same way — load it at
// https://ui.perfetto.dev to see every packet's hop-by-hop timeline.
// -probe-dir DIR attaches a probe to every point and writes
// per-interval time-series JSONL and heatmap CSV files there.
// -flight-dir DIR arms a flight recorder on every point: a point that
// degrades (watchdog, recovered invariant) dumps its last cycles of
// events there for `replay -flight`.  Traced, probed, span-exported or
// recorded points always simulate — the result cache is bypassed for
// them.
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
	model := fs.String("model", "SB", "network model: WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD")
	domains := fs.Int("domains", 2, "number of interference domains")
	from := fs.Float64("from", 0.01, "first total injection rate")
	to := fs.Float64("to", 0.30, "last total injection rate")
	step := fs.Float64("step", 0.02, "rate increment")
	cycles := fs.Int64("cycles", 10000, "measured cycles per point")
	seed := fs.Int64("seed", 1, "random seed")
	workers := fs.Int("workers", 1, "points simulated concurrently (rows stay in rate order)")
	shards := fs.Int("shards", 1, "mesh tiles stepped in parallel inside each point (local runs only; bit-identical to serial)")
	useCache := fs.Bool("cache", true, "reuse cached simulation results")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "result-cache directory")
	noCache := fs.Bool("no-cache", false, "run every simulation fresh (overrides -cache)")
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
	ckptPath := fs.String("checkpoint", "", "journal completed points to this file")
	resume := fs.Bool("resume", false, "replay completed points from -checkpoint instead of re-simulating them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweep:", err)
		return 1
	}

	m, err := sweepsvc.ParseModel(*model)
	if err != nil {
		return fatal(err)
	}
	if *workers < 1 {
		return fatal(fmt.Errorf("-workers %d, need ≥ 1", *workers))
	}
	if *shards < 1 {
		return fatal(fmt.Errorf("-shards %d, need ≥ 1", *shards))
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
	if *useCache && !*noCache {
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

	var ckpt *simcache.Checkpoint
	if *resume && *ckptPath == "" {
		return fatal(fmt.Errorf("-resume needs -checkpoint FILE"))
	}
	if *ckptPath != "" {
		if !*resume {
			// Without -resume the journal starts fresh; stale entries
			// from an unrelated sweep must not be replayed.
			if err := os.Remove(*ckptPath); err != nil && !os.IsNotExist(err) {
				return fatal(err)
			}
		}
		if ckpt, err = simcache.OpenCheckpoint(*ckptPath); err != nil {
			return fatal(err)
		}
		defer ckpt.Close()
		if *resume {
			fmt.Fprintf(stderr, "resume: %d point(s) already journaled in %s", ckpt.Len(), *ckptPath)
			if n := ckpt.Skipped(); n > 0 {
				fmt.Fprintf(stderr, " (%d torn line(s) dropped)", n)
			}
			fmt.Fprintln(stderr)
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

	// Failing points retry under the same seeded-backoff policy the
	// sweepd workers use, so a local and a remote sweep degrade the
	// same way.
	policy := backoff.Policy{Seed: *seed}

	// outcome is one point's finished state, produced on a worker and
	// emitted on this goroutine in rate order.
	type outcome struct {
		row    string
		err    error        // non-nil after the attempt budget is spent
		key    simcache.Key // cache fingerprint (valid iff keyOK)
		keyOK  bool
		replay bool // row came from the -resume journal
	}

	compute := func(_ int, rate float64) (outcome, error) {
		o, oerr := spec.Options(rate)
		if oerr != nil { // unreachable after Validate; keep the point isolated anyway
			return outcome{row: sweepsvc.ErrorRow(rate, "error: "+sweepsvc.CSVSafe(oerr.Error())), err: oerr}, nil
		}
		// Execution knob, not part of the point's identity: Shards is
		// fingerprint-exempt, so cache and checkpoint keys are unchanged.
		o.Shards = *shards
		out := outcome{}
		key, keyErr := sim.Fingerprint(o)
		if keyErr == nil {
			out.key, out.keyOK = key, true
		}
		if ckpt != nil && out.keyOK && !o.Observed() {
			if row, ok := ckpt.Lookup(key); ok {
				out.row, out.replay = row, true
				return out, nil
			}
		}

		// Per-point isolation: a failing point is retried with seeded
		// exponential backoff up to the -attempts budget, then reported
		// as an error row; the sweep always reaches the last rate.
		// Degraded points (watchdog, recovered invariant) are data, not
		// failures — their partial stats make the row and never consume
		// retries.
		budget := spec.Attempts()
		var lastErr error
		for attempt := 1; attempt <= budget; attempt++ {
			pctx, cancel := spec.PointContext(context.Background())
			res, status, perr := sweepPoint(pctx, o, m, rate, cache, pointFiles{
				trace: *traceFile, spans: *spansFile,
				probeDir: *probeDir, probeEvery: *probeEvery,
				flightDir: *flightDir, stderr: stderr,
			})
			cancel()
			if perr == nil {
				out.row = sweepsvc.RenderRow(rate, *domains, res, sweepsvc.StatusWithAttempts(status, attempt))
				return out, nil
			}
			if errors.Is(perr, context.DeadlineExceeded) {
				perr = spec.TimeoutError()
			}
			lastErr = perr
			if attempt == budget {
				break
			}
			fmt.Fprintf(stderr, "sweep: rate %.3f attempt %d failed (%v), backing off %v\n",
				rate, attempt, perr, policy.Delay(attempt-1).Round(time.Millisecond))
			policy.Sleep(context.Background(), attempt-1) //nolint:errcheck // background ctx never cancels
		}
		fmt.Fprintf(stderr, "sweep: rate %.3f failed %d time(s): %v — continuing\n", rate, budget, lastErr)
		out.row = sweepsvc.ErrorRow(rate, sweepsvc.StatusWithAttempts("error: "+sweepsvc.CSVSafe(lastErr.Error()), budget))
		out.err = lastErr
		return out, nil
	}

	fmt.Fprintln(stdout, sweepsvc.CSVHeader)
	failures := 0
	observed := *traceFile != "" || *spansFile != "" || *probeDir != "" || *flightDir != ""
	parmap.Stream(rates, *workers, compute, func(_ int, out outcome, _ error) {
		fmt.Fprintln(stdout, out.row)
		if out.err != nil {
			failures++
		}
		if ckpt != nil && out.keyOK && out.err == nil && !out.replay && !observed {
			if rerr := ckpt.Record(out.key, out.row); rerr != nil {
				fmt.Fprintf(stderr, "sweep: checkpoint: %v\n", rerr)
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

// remoteRPCAttempts bounds each remote poll's retries through a
// coordinator outage — the same budget the workers run with, so the
// client survives any bounce the fleet survives.
const remoteRPCAttempts = 8

// remotePollHook, when non-nil, runs after every poll (status and rows
// fetched) and before freshly completed rows are printed — the seam
// the regression test uses to bounce the coordinator mid-stream.
var remotePollHook func(done, total int)

// runRemote submits the spec to a sweepd coordinator and streams the
// CSV as points complete: the header first, then each row as soon as
// every earlier rate is also done, so stdout is byte-identical to a
// local sweep.  Polls ride through transient coordinator outages (a
// crash-restart mid-sweep loses no journaled work, so giving up would
// abandon a live job).  Printed rows are deduplicated by point
// fingerprint, not row index: a bounce with a torn WAL tail can revert
// a completed point to pending and re-complete it later, so indexes
// may go backwards between polls while fingerprints stay stable.
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
	next := 0 // rows[:next] have been streamed; rate order never regresses
	lastDone := -1
	for {
		st, err := client.StatusWithRetry(ctx, policy, remoteRPCAttempts, job)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if progress && st.Done != lastDone {
			fmt.Fprintf(stderr, "remote: %d/%d done (%d leased, %d failed)\n", st.Done, st.Total, st.Leased, st.Failed)
			lastDone = st.Done
		}
		rows, err := client.RowsWithRetry(ctx, policy, remoteRPCAttempts, job)
		if err != nil {
			fmt.Fprintln(stderr, "sweep:", err)
			return 1
		}
		if remotePollHook != nil {
			remotePollHook(st.Done, st.Total)
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
		if st.Complete && next >= len(rows) {
			if st.Failed > 0 {
				fmt.Fprintf(stderr, "sweep: %d point(s) failed\n", st.Failed)
				return 1
			}
			return 0
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// pointFiles collects the per-point observability outputs a sweep can
// request: lifecycle trace, Chrome-trace spans, probe series/heatmaps,
// and flight-recorder dumps of degraded points.
type pointFiles struct {
	trace      string
	spans      string
	probeDir   string
	probeEvery int64
	flightDir  string
	stderr     io.Writer
}

// sweepPoint simulates one rate and returns its result and status cell
// ("ok" or "degraded: <reason>").  A panic that escapes the
// simulator's own recover boundary is converted to an error here so
// the caller's isolation holds.
func sweepPoint(ctx context.Context, o sim.Options, m config.Model, rate float64,
	cache *simcache.Cache, files pointFiles) (res sim.Result, status string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	o.Ctx = ctx
	var tw *trace.Writer
	if files.trace != "" {
		f, ferr := os.Create(suffixed(files.trace, rate))
		if ferr != nil {
			return res, "", ferr
		}
		fmt.Fprintln(f, trace.Header())
		tw = trace.New(f)
		o.Tracer = tw.Tracer()
	}
	var pf *trace.Perfetto
	if files.spans != "" {
		f, ferr := os.Create(suffixed(files.spans, rate))
		if ferr != nil {
			return res, "", ferr
		}
		pf = trace.NewPerfetto(f, o.Cfg.Mesh())
		o.Taps = append(o.Taps, pf)
	}
	var p *probe.Probe
	if files.probeDir != "" {
		p = &probe.Probe{}
		o.Probe = p
		o.ProbeEvery = files.probeEvery
	}
	if files.flightDir != "" {
		o.Recorder = probe.NewFlightRecorder(0)
	}
	res, err = sim.RunCached(o, cache)
	status = "ok"
	if err != nil {
		var de *sim.DegradedError
		if !errors.As(err, &de) {
			return res, "", err
		}
		res = de.Partial
		status = "degraded: " + sweepsvc.CSVSafe(de.Reason)
		err = nil
		if de.Flight != nil && files.flightDir != "" {
			path := filepath.Join(files.flightDir, fmt.Sprintf("sweep_%v_r%.3f.flight.json", m, rate))
			if werr := exportFile(path, de.Flight.WriteJSON); werr != nil {
				return res, "", werr
			}
			fmt.Fprintf(files.stderr, "sweep: rate %.3f degraded — flight dump: %s\n", rate, path)
		}
	}
	if tw != nil {
		if cerr := tw.Close(); cerr != nil {
			return res, "", fmt.Errorf("trace: %w", cerr)
		}
	}
	if pf != nil {
		if cerr := pf.Close(); cerr != nil {
			return res, "", fmt.Errorf("spans: %w", cerr)
		}
	}
	if p != nil {
		base := fmt.Sprintf("%v_r%.3f", m, rate)
		if eerr := exportFile(filepath.Join(files.probeDir, "sweep_ts_"+base+".jsonl"), p.WriteTimeSeriesJSONL); eerr != nil {
			return res, "", eerr
		}
		if eerr := exportFile(filepath.Join(files.probeDir, "sweep_heat_"+base+".csv"), p.WriteHeatmapCSV); eerr != nil {
			return res, "", eerr
		}
	}
	return res, status, nil
}

// suffixed inserts _r<rate> before path's extension, so per-point
// trace files do not clobber each other.
func suffixed(path string, rate float64) string {
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + fmt.Sprintf("_r%.3f", rate) + ext
}

// exportFile streams one probe exporter into path.
func exportFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return nil
}
