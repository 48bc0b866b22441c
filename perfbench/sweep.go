package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
)

const (
	sweepCycles  = 200                     // measured cycles per sweep point
	pollEvery    = 50 * time.Millisecond   // client status poll
	batchTimeout = 120 * time.Second       // a sweep batch that takes longer has failed
	rpcTimeout   = 10 * time.Second        // the Client's default HTTP timeout
	workerName   = "perfbench-sweepworker" // lease owner
)

// rpcKinds are the RPCs whose latency is reported.
var rpcKinds = []string{"lease", "complete", "status"}

// sweepSpecs is the job set: one model sweep per paper model over 30
// rates, 120 leased points in all, expressible as cmd/sweep flags.
func sweepSpecs(seed int64) []sweepsvc.Spec {
	var specs []sweepsvc.Spec
	for _, m := range []string{"WH", "Surf", "BLESS", "SB"} {
		specs = append(specs, sweepsvc.Spec{Model: m, Domains: 2, From: 0.01, To: 0.30, Step: 0.01,
			Cycles: sweepCycles, Seed: seed})
	}
	return specs
}

// service is one in-process sweepd plus one sweepworker, wired the way
// the two binaries wire themselves, over a fresh directory.
type service struct {
	dir       string
	store     *simcache.Cache
	coord     *sweepsvc.Coordinator
	srv       *sweepsvc.Server
	transport *http.Transport
	client    *sweepsvc.Client
	worker    *sweepsvc.Worker
	slots     int
	stop      context.CancelFunc
	done      chan error
}

// startService brings the service up under base.  rec, when non-nil,
// receives the coordinator and worker hooks and times every RPC.
func startService(base string, seed int64, rec *sweepRecorder) (_ *service, err error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(base, "sweep-")
	if err != nil {
		return nil, err
	}
	s := &service{dir: dir, slots: runtime.NumCPU()}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	cacheDir := filepath.Join(dir, "cache")
	if s.store, err = simcache.New(simcache.Options{Dir: cacheDir}); err != nil {
		return nil, err
	}
	metrics := probe.NewMetrics()
	s.store.ExposeMetrics(metrics)
	co := sweepsvc.CoordinatorOptions{WALPath: filepath.Join(dir, "sweepd.wal"), Store: s.store, Metrics: metrics}
	if rec != nil {
		co.Hooks = rec.coordinatorHooks()
	}
	if s.coord, err = sweepsvc.OpenCoordinator(co); err != nil {
		return nil, err
	}
	if s.srv, err = sweepsvc.NewServer("127.0.0.1:0", s.coord, metrics); err != nil {
		return nil, err
	}

	s.transport = http.DefaultTransport.(*http.Transport).Clone()
	var rt http.RoundTripper = s.transport
	if rec != nil {
		rt = timedTransport{next: rt, rec: rec}
	}
	s.client = sweepsvc.NewClient(s.srv.Addr())
	s.client.HTTP = &http.Client{Timeout: rpcTimeout, Transport: rt}

	// sweepworker defaults: its own cache handle on the shared store,
	// Slots = NumCPU, no prefetch.
	wcache, err := simcache.New(simcache.Options{Dir: cacheDir})
	if err != nil {
		return nil, err
	}
	policy := backoff.Policy{Seed: seed}
	polled := &firstTrip{next: rt, done: make(chan struct{})}
	wclient := sweepsvc.NewClient(s.srv.Addr())
	wclient.HTTP = &http.Client{Timeout: rpcTimeout, Transport: polled}
	wo := sweepsvc.WorkerOptions{
		Name:    workerName,
		Client:  wclient,
		Runner:  &sweepsvc.Runner{Cache: wcache, Policy: policy},
		Slots:   s.slots,
		Backoff: policy,
	}
	if rec != nil {
		wo.Hooks = rec.workerHooks()
	}
	if s.worker, err = sweepsvc.NewWorker(wo); err != nil {
		return nil, err
	}
	ctx, stop := context.WithCancel(context.Background())
	s.stop, s.done = stop, make(chan error, 1)
	go func() { s.done <- s.worker.Run(ctx) }()
	// The service is up once the worker's first lease poll is back.
	select {
	case <-polled.done:
	case <-time.After(rpcTimeout):
		return nil, fmt.Errorf("sweep worker made no lease poll within %v", rpcTimeout)
	}
	return s, nil
}

// firstTrip closes done when its first round trip returns.
type firstTrip struct {
	next http.RoundTripper
	once sync.Once
	done chan struct{}
}

func (f *firstTrip) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := f.next.RoundTrip(req)
	f.once.Do(func() { close(f.done) })
	return resp, err
}

// close drains the worker, stops the server and coordinator, and
// removes the service's directory.
func (s *service) close() error {
	var errs []error
	if s.done != nil {
		s.worker.Drain()
		errs = append(errs, <-s.done)
		s.stop()
	}
	if s.srv != nil {
		errs = append(errs, s.srv.Close())
	}
	if s.coord != nil {
		errs = append(errs, s.coord.Close())
	}
	if s.transport != nil {
		s.transport.CloseIdleConnections()
	}
	errs = append(errs, os.RemoveAll(s.dir))
	return errors.Join(errs...)
}

// sweepRun is what one batch of the job set produced.
type sweepRun struct {
	wall     time.Duration
	csv      []string // per job: the four specs, the twin, the resubmission
	rows     int
	rc       int64 // router-cycles of the simulated points
	counters map[string]float64
	walBytes int64
	disk     int64
	hitRatio float64
	rt       [2]runtimeSample // runtime counters around the timed region
}

// runJobs submits the job set and waits for it: the four sweeps, then a
// twin of the first while it runs (singleflight), then — once all are
// done — the first again, served from the store.  The timed region runs
// from the first submit to the last job's completion.
func (s *service) runJobs(specs []sweepsvc.Spec) (run sweepRun, err error) {
	ctx, cancel := context.WithTimeout(context.Background(), batchTimeout)
	defer cancel()
	var ids []string
	submit := func(sp sweepsvc.Spec) error {
		id, n, err := s.client.Submit(ctx, sp)
		ids = append(ids, id)
		run.rows += n
		return err
	}
	run.rt[0] = readRuntime()
	t0 := time.Now()
	for _, sp := range specs {
		if err := submit(sp); err != nil {
			return run, err
		}
	}
	if err := submit(specs[0]); err != nil {
		return run, err
	}
	if err := s.wait(ctx, ids); err != nil {
		return run, err
	}
	if err := submit(specs[0]); err != nil {
		return run, err
	}
	if err := s.wait(ctx, ids[len(ids)-1:]); err != nil {
		return run, err
	}
	run.wall = time.Since(t0)
	run.rt[1] = readRuntime()

	for _, id := range ids {
		csv, err := s.client.CSV(ctx, id)
		if err != nil {
			return run, err
		}
		run.csv = append(run.csv, csv)
	}
	hits := s.store.Stats()
	run.hitRatio = ratio(float64(hits.Hits), float64(hits.Hits+hits.Misses))
	if run.counters, err = s.scrape(ctx); err != nil {
		return run, err
	}
	if run.rc, err = s.routerCycles(specs); err != nil {
		return run, err
	}
	if fi, err := os.Stat(filepath.Join(s.dir, "sweepd.wal")); err == nil {
		run.walBytes = fi.Size()
	}
	err = filepath.WalkDir(filepath.Join(s.dir, "cache"), func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			run.disk += fi.Size()
		}
		return err
	})
	return run, err
}

// wait polls the jobs until every one is complete.
func (s *service) wait(ctx context.Context, ids []string) error {
	pending := append([]string(nil), ids...)
	for {
		next := pending[:0]
		for _, id := range pending {
			st, err := s.client.Status(ctx, id)
			if err != nil {
				return err
			}
			if !st.Complete {
				next = append(next, id)
			}
		}
		if pending = next; len(pending) == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("sweep jobs %v: %w", pending, ctx.Err())
		case <-time.After(pollEvery):
		}
	}
}

// scrape reads the coordinator's /metrics counters, untimed.
func (s *service) scrape(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+s.srv.Addr()+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: rpcTimeout, Transport: s.transport}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, sc.Err()
}

// routerCycles sums Cycles·Nodes over the job set's distinct points,
// read back from the store through a separate handle so the store's own
// hit counters stay untouched.
func (s *service) routerCycles(specs []sweepsvc.Spec) (int64, error) {
	c, err := simcache.New(simcache.Options{Dir: filepath.Join(s.dir, "cache")})
	if err != nil {
		return 0, err
	}
	var rc int64
	for _, sp := range specs {
		for _, rate := range sp.Rates() {
			key, err := sp.Fingerprint(rate)
			if err != nil {
				return 0, err
			}
			res, ok := sweepsvc.StoreLookup(c, key)
			if !ok {
				return 0, fmt.Errorf("sweep %s rate %.3f: no stored result", sp.Model, rate)
			}
			rc += res.Cycles * int64(res.Nodes)
		}
	}
	return rc, nil
}

// sweepRecorder collects the sweep layer's spans and samples in a
// traced batch.
type sweepRecorder struct {
	tr    *tracer
	slots int

	mu       sync.Mutex
	batch    int                  // the batch's span ID, once it opens
	leases   map[string]int       // "job/point" → open lease span
	acquired map[string]time.Time // lease ID → acquire time
	busy     time.Duration
	leaseMS  []float64
	rpcMS    map[string][]float64
}

func newSweepRecorder(tr *tracer) *sweepRecorder {
	return &sweepRecorder{tr: tr, leases: map[string]int{}, acquired: map[string]time.Time{},
		rpcMS: map[string][]float64{}}
}

func pointKey(job string, point int) string { return job + "/" + strconv.Itoa(point) }

// coordinatorHooks time each lease from grant to completion.
func (r *sweepRecorder) coordinatorHooks() *sweepsvc.Hooks {
	return &sweepsvc.Hooks{
		LeaseGranted: func(job string, point int, _ string) {
			r.mu.Lock()
			defer r.mu.Unlock()
			r.leases[pointKey(job, point)] = r.tr.open("sweepsvc.lease", r.batch)
		},
		// Merged and store-served points complete without a lease.
		PointCompleted: func(job string, point int, dup bool) {
			r.mu.Lock()
			defer r.mu.Unlock()
			if id, ok := r.leases[pointKey(job, point)]; ok && !dup {
				delete(r.leases, pointKey(job, point))
				r.leaseMS = append(r.leaseMS, float64(r.tr.close(id))/1e6)
			}
		},
	}
}

// workerHooks time each slot's occupancy from lease acquisition to the
// point's finish.
func (r *sweepRecorder) workerHooks() *sweepsvc.WorkerHooks {
	return &sweepsvc.WorkerHooks{
		LeaseAcquired: func(l sweepsvc.Lease) {
			r.mu.Lock()
			r.acquired[l.ID] = time.Now()
			r.mu.Unlock()
		},
		PointFinished: func(l sweepsvc.Lease, _ sweepsvc.Execution) {
			now := time.Now()
			r.mu.Lock()
			t := r.acquired[l.ID]
			delete(r.acquired, l.ID)
			r.busy += now.Sub(t)
			parent := r.leases[pointKey(l.Job, l.Point)]
			r.mu.Unlock()
			r.tr.add("sweepworker.slot", parent, t, now)
		},
	}
}

// timedTransport records every client RPC as a span.
type timedTransport struct {
	next http.RoundTripper
	rec  *sweepRecorder
}

func (t timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.next.RoundTrip(req)
	end := time.Now()
	kind := rpcKind(req)
	t.rec.mu.Lock()
	defer t.rec.mu.Unlock()
	t.rec.rpcMS[kind] = append(t.rec.rpcMS[kind], float64(end.Sub(start))/1e6)
	t.rec.tr.add("rpc."+kind, t.rec.batch, start, end)
	return resp, err
}

// rpcKind names a request by the sweepsvc route it hits.
func rpcKind(req *http.Request) string {
	p := req.URL.Path
	switch {
	case p == "/api/jobs" && req.Method == http.MethodPost:
		return "submit"
	case strings.HasPrefix(p, "/api/jobs/"):
		if rest := strings.TrimPrefix(p, "/api/jobs/"); strings.Contains(rest, "/") {
			return rest[strings.Index(rest, "/")+1:]
		}
		return "status"
	case strings.HasPrefix(p, "/api/"):
		return strings.TrimPrefix(p, "/api/")
	default:
		return "other"
	}
}

// sweepBench runs the job set through a fresh service per batch, so
// every batch writes the store before reading it.
type sweepBench struct {
	base  string
	seed  int64
	specs []sweepsvc.Spec
	refs  []string // recorded CSV per spec ("" = SerialCSV instead)
	tr    *tracer
	svc   *service // the next batch's service, started ahead of it

	runs, baselineRuns, tracedRuns []sweepRun
	recs                           []*sweepRecorder // one per traced run
	rt                             runtimeSample
	rtRC                           float64
}

func newSweepBench(base string, seed int64, refs digests, tr *tracer) (*sweepBench, error) {
	b := &sweepBench{base: base, seed: seed, specs: sweepSpecs(seed), tr: tr}
	for _, sp := range b.specs {
		b.refs = append(b.refs, refs.CSV["sweep-service/"+sp.Model])
	}
	var err error
	b.svc, err = startService(base, seed, nil)
	return b, err
}

func (b *sweepBench) close() error {
	if b.svc == nil {
		return nil
	}
	err := b.svc.close()
	b.svc = nil
	return err
}

// batch runs the job set once on a fresh service.
func (b *sweepBench) batch(mode batchMode) (err error) {
	var rec *sweepRecorder
	if mode == traced {
		rec = newSweepRecorder(b.tr)
	}
	if b.svc == nil || rec != nil {
		if err := b.close(); err != nil {
			return err
		}
		svc, err := startService(b.base, b.seed, rec)
		if err != nil {
			return err
		}
		b.svc = svc
	}
	svc := b.svc
	defer func() { err = errors.Join(err, b.close()) }()
	runtime.GC()
	if rec != nil {
		rec.slots = svc.slots
		rec.mu.Lock()
		rec.batch = b.tr.open("sweep.batch", 0)
		rec.mu.Unlock()
	}
	run, err := svc.runJobs(b.specs)
	if rec != nil {
		rec.mu.Lock()
		b.tr.close(rec.batch)
		rec.mu.Unlock()
	}
	if err != nil {
		return fmt.Errorf("sweep batch: %w", err)
	}
	switch mode {
	case traced:
		b.tracedRuns = append(b.tracedRuns, run)
		b.recs = append(b.recs, rec)
	case baseline:
		b.rt.add(run.rt[0], run.rt[1])
		b.rtRC += float64(run.rc)
		b.baselineRuns = append(b.baselineRuns, run)
	default:
		b.runs = append(b.runs, run)
	}
	return nil
}

// verify compares every job's CSV with its reference row by row; one
// sweep point is one op.  The reference is the recorded CSV, or for
// other seeds the serial reference runner's output.  A requeued lease
// fails one op: its point did not finish within the lease, and the
// batch's time includes the wait for the lease to expire.
func (b *sweepBench) verify() (attempted, failed int, errs []error) {
	refs := append([]string(nil), b.refs...)
	for i, sp := range b.specs {
		if refs[i] != "" {
			continue
		}
		var sb strings.Builder
		if _, err := (&sweepsvc.Runner{}).SerialCSV(context.Background(), sp, &sb); err != nil {
			errs = append(errs, fmt.Errorf("sweep %s: serial reference: %w", sp.Model, err))
		}
		refs[i] = sb.String()
	}
	jobRef := func(j int) (string, string) {
		if j < len(b.specs) {
			return b.specs[j].Model, refs[j]
		}
		return b.specs[0].Model, refs[0] // the twin and the resubmission
	}
	for i, run := range slices.Concat(b.runs, b.baselineRuns, b.tracedRuns) {
		if n := int(run.counters["surfbless_sweepd_requeues_total"]); n > 0 {
			failed += n
			errs = append(errs, fmt.Errorf("sweep batch %d: %d lease(s) requeued", i, n))
		}
		for j, got := range run.csv {
			model, ref := jobRef(j)
			a, f, err := compareCSV(ref, got)
			attempted += a
			failed += f
			if err != nil {
				errs = append(errs, fmt.Errorf("sweep %s job %d: %w", model, j, err))
			}
		}
	}
	return attempted, failed, errs
}

// compareCSV counts the reference's rows and those the output got wrong
// or missed; a row must also carry an ok status.
func compareCSV(ref, got string) (attempted, failed int, err error) {
	want := strings.Split(strings.TrimSuffix(ref, "\n"), "\n")
	have := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if len(want) < 2 || want[0] != sweepsvc.CSVHeader {
		return 0, 0, fmt.Errorf("reference CSV has no rows")
	}
	headerOK := len(have) > 0 && have[0] == want[0]
	for i := 1; i < len(want); i++ {
		attempted++
		if !headerOK || i >= len(have) || have[i] != want[i] || !strings.HasSuffix(have[i], ",ok") {
			failed++
			if err == nil {
				err = fmt.Errorf("row %d differs from the reference", i)
			}
		}
	}
	if len(have) != len(want) && err == nil {
		err = fmt.Errorf("%d rows, reference has %d", len(have)-1, len(want)-1)
		failed++
	}
	return attempted, failed, err
}

// endToEnd reports the median batch's points and router-cycles per
// host second.
func (b *sweepBench) endToEnd(out map[string]float64) {
	var pps, rcps []float64
	for _, r := range b.runs {
		pps = append(pps, float64(r.rows)/r.wall.Seconds())
		rcps = append(rcps, float64(r.rc)/r.wall.Seconds())
	}
	out["points_per_s"] = median(pps)
	out["router_cycles_per_s"] = median(rcps)
}

// perLayer reports the sweep layer's medians over the traced batches
// and percentiles over their pooled samples.
func (b *sweepBench) perLayer(out map[string]float64) {
	per := map[string][]float64{}
	var leaseMS []float64
	rpcMS := map[string][]float64{}
	for i, run := range b.tracedRuns {
		rec := b.recs[i]
		leaseMS = append(leaseMS, rec.leaseMS...)
		for k, xs := range rec.rpcMS {
			rpcMS[k] = append(rpcMS[k], xs...)
		}
		c := run.counters
		for k, v := range map[string]float64{
			"sweepsvc.slot_busy_share": ratio(float64(rec.busy), float64(rec.slots)*float64(run.wall)),
			"sweepsvc.points_simulated": c["surfbless_sweepd_completions_total"] -
				c["surfbless_sweepd_singleflight_merged_total"] - c["surfbless_sweepd_store_hits_total"],
			"sweepsvc.points_deduped": c["surfbless_sweepd_singleflight_merged_total"],
			"sweepsvc.requeues":       c["surfbless_sweepd_requeues_total"],
			"sweepsvc.wal_bytes":      float64(run.walBytes),
			"simcache.disk_bytes":     float64(run.disk),
			"simcache.hit_ratio":      run.hitRatio,
		} {
			per[k] = append(per[k], v)
		}
	}
	for k, xs := range per {
		out[k] = median(xs)
	}
	percentiles(out, "sweepsvc.lease_ms", leaseMS, map[string]float64{"p50": 0.50, "p90": 0.90})
	for _, k := range rpcKinds {
		percentiles(out, "sweepsvc.rpc_ms."+k, rpcMS[k], map[string]float64{"p50": 0.50, "p90": 0.90})
	}
	b.rt.fill(out, b.rtRC)
	out["trace.overhead"] = ratio(float64(medianWall(b.tracedRuns)), float64(medianWall(b.baselineRuns)))
}

func medianWall(runs []sweepRun) time.Duration {
	var ds []time.Duration
	for _, r := range runs {
		ds = append(ds, r.wall)
	}
	return medianDur(ds)
}
