package sweepsvc

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"surfbless/internal/probe"
	"surfbless/internal/simcache"
)

// DefaultLeaseTTL is the lease lifetime when CoordinatorOptions leaves
// it zero.  Workers renew at a third of the TTL, so three consecutive
// missed heartbeats forfeit the lease.
const DefaultLeaseTTL = 10 * time.Second

// Hooks are the coordinator's observation points for tests and the
// chaos harness (nil = disabled, like every hook in this repository).
//
//hook:nil-disabled
type Hooks struct {
	// LeaseGranted fires after a lease is handed to a worker.
	LeaseGranted func(job string, point int, worker string)
	// LeaseExpired fires when an expiry sweep requeues a lease whose
	// worker stopped heartbeating.
	LeaseExpired func(job string, point int, worker string)
	// PointCompleted fires on every accepted completion; dup marks a
	// completion that arrived after the point was already done and was
	// dropped.
	PointCompleted func(job string, point int, dup bool)
}

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// WALPath is the crash-safe journal; opening the same path resumes
	// every journaled job exactly.  Required.
	WALPath string
	// Store is the shared simcache-backed result store: lease grants
	// consult it (a stored result completes the point without a lease)
	// and ok-completions feed it.  Optional.
	Store *simcache.Cache
	// LeaseTTL is the lease lifetime between renewals (0 =
	// DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Clock overrides time.Now for lease-expiry tests.
	Clock func() time.Time
	// Metrics, when non-nil, receives the service counters
	// (leases granted/renewed/expired, requeues, completions,
	// duplicates, singleflight merges, store hits) for /metrics.
	Metrics *probe.Metrics
	// Hooks observe state transitions (nil-safe).
	Hooks *Hooks
}

// pointState is one point's position in the lease lifecycle.
type pointState int

const (
	pointPending pointState = iota
	pointLeased
	pointDone
)

// point is one work unit: a single (spec, rate) simulation.
type point struct {
	rate  float64
	key   simcache.Key
	keyOK bool

	state    pointState
	leaseID  string // valid while leased
	row      string
	status   string
	attempts int
	failed   bool
}

// job is one submitted spec and its points.
type job struct {
	id     string
	spec   Spec
	points []*point
	done   int
	failed int
}

func (j *job) complete() bool { return j.done == len(j.points) }

// lease is one granted work unit with its expiry.
type lease struct {
	id      string
	worker  string
	jobID   string
	point   int
	expires time.Time
}

// Lease is the wire form of a granted work unit.
type Lease struct {
	ID    string  `json:"id"`
	Job   string  `json:"job"`
	Point int     `json:"point"`
	Rate  float64 `json:"rate"`
	Spec  Spec    `json:"spec"`
	TTLMS int64   `json:"ttl_ms"`
}

// Completion is the wire form of a finished point report.
type Completion struct {
	Lease    string `json:"lease,omitempty"` // may be stale after a bounce
	Job      string `json:"job"`
	Point    int    `json:"point"`
	Row      string `json:"row"`
	Status   string `json:"status"`
	Attempts int    `json:"attempts"`
	Failed   bool   `json:"failed,omitempty"`
	// Result optionally carries the marshaled sim.Result of an ok
	// point so the coordinator can feed the shared store even when the
	// worker's cache directory is not shared.
	Result json.RawMessage `json:"result,omitempty"`
}

// PointRow is the wire form of one point's streamed output: its rate,
// stable fingerprint, completion state and CSV row.  Rows are reported
// in rate order; the fingerprint — not the row index — is the dedup
// key a streaming client must use, because a coordinator bounce with a
// torn WAL tail can revert a completed point to pending and re-complete
// it later, shifting which indexes are done between two answers.
type PointRow struct {
	Point       int     `json:"point"`
	Rate        float64 `json:"rate"`
	Fingerprint string  `json:"fingerprint,omitempty"` // empty when the rate cannot fingerprint
	Done        bool    `json:"done"`
	Failed      bool    `json:"failed,omitempty"`
	Row         string  `json:"row,omitempty"` // valid once Done
}

// CountDone returns how many of rows are done, and how many of those
// failed.
func CountDone(rows []PointRow) (done, failed int) {
	for _, r := range rows {
		if r.Done {
			done++
			if r.Failed {
				failed++
			}
		}
	}
	return done, failed
}

// JobStatus is the wire form of a job's progress.
type JobStatus struct {
	Job      string `json:"job"`
	Total    int    `json:"total"`
	Done     int    `json:"done"`
	Failed   int    `json:"failed"`
	Leased   int    `json:"leased"`
	Complete bool   `json:"complete"`
}

// coordCounters are the /metrics instruments.
type coordCounters struct {
	granted    probe.Counter
	renewed    probe.Counter
	expired    probe.Counter
	requeued   probe.Counter
	completed  probe.Counter
	duplicates probe.Counter
	merged     probe.Counter
	storeHits  probe.Counter
}

// Coordinator owns the sweep service's authoritative state: jobs,
// points, leases and the singleflight table, all journaled through the
// WAL.  Every exported method is safe for concurrent use; leases are
// expired lazily at the top of each mutating call, which lease asks,
// heartbeats and completions keep making, so there is no background
// goroutine.
type Coordinator struct {
	mu     sync.Mutex
	opts   CoordinatorOptions
	wal    *WAL
	jobs   map[string]*job
	order  []string // job admission order
	leases map[string]*lease
	// inflight maps a fingerprint to the lease currently executing it,
	// so identical points (across jobs) ride one execution: duplicates
	// are held back from leasing and completed from the first result.
	inflight map[simcache.Key]string
	seq      int64 // job / lease ID source
	// epoch scopes lease IDs to this coordinator incarnation.  WAL
	// replay rebuilds jobs without advancing seq, so after a bounce a
	// bare l<seq> counter would re-mint IDs that pre-bounce workers
	// still heartbeat — and a renewal (or completion) against such a
	// recycled ID would act on an unrelated lease.  Stamping the open
	// time into the ID keeps incarnations disjoint.
	epoch    int64
	counters coordCounters
	hooks    *Hooks
	closed   bool
	// change is closed and replaced whenever work may have appeared or a
	// job moved: a job admitted, a point requeued or completed, Close.
	change chan struct{}
}

// OpenCoordinator opens (or resumes) a coordinator over its WAL.
// Replay rebuilds jobs and completed points; leases are soft state and
// start empty, so points that were leased at crash time are simply
// pending again.
func OpenCoordinator(o CoordinatorOptions) (*Coordinator, error) {
	if o.WALPath == "" {
		return nil, fmt.Errorf("sweepsvc: coordinator needs a WAL path")
	}
	if o.LeaseTTL <= 0 {
		o.LeaseTTL = DefaultLeaseTTL
	}
	if o.Clock == nil {
		o.Clock = time.Now
	}
	wal, recs, err := OpenWAL(o.WALPath)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		opts:     o,
		wal:      wal,
		jobs:     make(map[string]*job),
		leases:   make(map[string]*lease),
		inflight: make(map[simcache.Key]string),
		epoch:    o.Clock().UnixNano(),
		hooks:    o.Hooks,
		change:   make(chan struct{}),
	}
	if m := o.Metrics; m != nil {
		c.counters = coordCounters{
			granted:    m.Counter("surfbless_sweepd_leases_granted_total", "work-unit leases handed to workers"),
			renewed:    m.Counter("surfbless_sweepd_lease_renewals_total", "heartbeat lease renewals"),
			expired:    m.Counter("surfbless_sweepd_leases_expired_total", "leases forfeited by missed heartbeats"),
			requeued:   m.Counter("surfbless_sweepd_requeues_total", "points returned to pending (expiry or release)"),
			completed:  m.Counter("surfbless_sweepd_completions_total", "accepted point completions"),
			duplicates: m.Counter("surfbless_sweepd_duplicate_completions_total", "completions dropped because the point was already done"),
			merged:     m.Counter("surfbless_sweepd_singleflight_merged_total", "points completed from an identical in-flight execution"),
			storeHits:  m.Counter("surfbless_sweepd_store_hits_total", "points completed from the shared result store at lease time"),
		}
		m.GaugeFunc("surfbless_sweepd_jobs", "jobs admitted (incl. complete)", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.jobs))
		})
		m.GaugeFunc("surfbless_sweepd_leases_active", "currently granted leases", func() int64 {
			c.mu.Lock()
			defer c.mu.Unlock()
			return int64(len(c.leases))
		})
	}
	for _, r := range recs {
		switch r.T {
		case RecordJob:
			if r.Spec == nil {
				continue // damaged but decodable line; skip defensively
			}
			c.admitLocked(r.Job, *r.Spec)
		case RecordPoint:
			j := c.jobs[r.Job]
			if j == nil || r.Point < 0 || r.Point >= len(j.points) {
				continue
			}
			p := j.points[r.Point]
			if p.state == pointDone {
				continue
			}
			p.state = pointDone
			p.row, p.status, p.attempts, p.failed = r.Row, r.Status, r.Attempts, r.Failed
			j.done++
			if r.Failed {
				j.failed++
			}
		}
	}
	return c, nil
}

// Skipped returns the WAL lines dropped at open (torn tail).
func (c *Coordinator) Skipped() int { return c.wal.Skipped() }

// Close releases the WAL and wakes every waiter.  In-memory state
// stays readable but further mutations fail.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	c.changedLocked()
	return c.wal.Close()
}

// nextChange returns a channel that closes at the coordinator's next
// change: a job admitted, a point requeued or completed, or Close.  A
// waiter takes it before it checks for work, so a change that lands
// between the check and the wait still wakes it.
func (c *Coordinator) nextChange() <-chan struct{} {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.change
}

// changedLocked fires the change signal.
func (c *Coordinator) changedLocked() {
	close(c.change)
	c.change = make(chan struct{})
}

// errUnknownJob marks a job ID the coordinator never admitted; the
// server answers it with 404.
var errUnknownJob = errors.New("sweepsvc: unknown job")

// nextIDLocked mints a sequential ID with the given prefix, skipping
// over IDs already taken by WAL replay.
func (c *Coordinator) nextIDLocked(prefix string) string {
	for {
		c.seq++
		id := fmt.Sprintf("%s%d", prefix, c.seq)
		if _, taken := c.jobs[id]; !taken {
			return id
		}
	}
}

// admitLocked materializes a job's points.  Fingerprints are derived
// once here; a rate whose options cannot fingerprint (should be
// excluded by Validate) simply opts out of store/singleflight dedup.
func (c *Coordinator) admitLocked(id string, spec Spec) *job {
	rates := spec.Rates()
	j := &job{id: id, spec: spec, points: make([]*point, len(rates))}
	for i, rate := range rates {
		p := &point{rate: rate}
		if key, err := spec.Fingerprint(rate); err == nil {
			p.key, p.keyOK = key, true
		}
		j.points[i] = p
	}
	c.jobs[id] = j
	c.order = append(c.order, id)
	return j
}

// SubmitJob validates and admits a sweep job, journaling it before the
// ID is revealed: an acknowledged job survives any crash.
func (c *Coordinator) SubmitJob(spec Spec) (string, int, error) {
	if err := spec.Validate(); err != nil {
		return "", 0, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return "", 0, fmt.Errorf("sweepsvc: coordinator closed")
	}
	id := c.nextIDLocked("j")
	if err := c.wal.Append(Record{T: RecordJob, Job: id, Spec: &spec}); err != nil {
		return "", 0, err
	}
	j := c.admitLocked(id, spec)
	c.changedLocked()
	return id, len(j.points), nil
}

// expireLocked requeues every lease whose TTL lapsed at or before now
// (a lease expiring exactly now is lapsed: ties between expiry and
// renewal go to expiry — see RenewLeases).
func (c *Coordinator) expireLocked(now time.Time) {
	for id, l := range c.leases {
		if now.Before(l.expires) {
			continue
		}
		c.requeueLocked(id, l)
		c.counters.expired.Inc()
		if c.hooks != nil && c.hooks.LeaseExpired != nil {
			c.hooks.LeaseExpired(l.jobID, l.point, l.worker)
		}
	}
}

// requeueLocked drops lease id and, while its point still acknowledges
// it, returns the point to pending.
func (c *Coordinator) requeueLocked(id string, l *lease) {
	delete(c.leases, id)
	p := c.jobs[l.jobID].points[l.point]
	if p.state != pointLeased || p.leaseID != id {
		return
	}
	p.state = pointPending
	p.leaseID = ""
	if p.keyOK && c.inflight[p.key] == id {
		delete(c.inflight, p.key)
	}
	c.counters.requeued.Inc()
	c.changedLocked()
}

// AcquireLeases grants up to max work units to worker.  Pending points
// whose fingerprint is already in the result store are completed
// inline (no lease, no simulation); points whose fingerprint is
// in-flight under another lease are held back — singleflight — and
// completed when that execution reports.  Jobs are served in admission
// order, points in rate order, so a lone worker processes a sweep in
// exactly the serial order.
func (c *Coordinator) AcquireLeases(worker string, max int) ([]Lease, error) {
	if max < 1 {
		return nil, nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("sweepsvc: coordinator closed")
	}
	now := c.opts.Clock()
	c.expireLocked(now)
	var out []Lease
	for _, jobID := range c.order {
		j := c.jobs[jobID]
		for i, p := range j.points {
			if len(out) >= max {
				return out, nil
			}
			if p.state != pointPending {
				continue
			}
			if p.keyOK {
				if res, ok := StoreLookup(c.opts.Store, p.key); ok {
					c.completePointLocked(j, i, Completion{
						Job: jobID, Point: i,
						Row:    RenderRow(p.rate, j.spec.Domains, res, "ok"),
						Status: "ok", Attempts: 1,
					})
					c.counters.storeHits.Inc()
					continue
				}
				if _, busy := c.inflight[p.key]; busy {
					continue // singleflight: ride the in-flight execution
				}
			}
			id := fmt.Sprintf("l%d.%d-%s", c.epoch, func() int64 { c.seq++; return c.seq }(), worker)
			l := &lease{id: id, worker: worker, jobID: jobID, point: i, expires: now.Add(c.opts.LeaseTTL)}
			c.leases[id] = l
			p.state = pointLeased
			p.leaseID = id
			if p.keyOK {
				c.inflight[p.key] = id
			}
			c.counters.granted.Inc()
			if c.hooks != nil && c.hooks.LeaseGranted != nil {
				c.hooks.LeaseGranted(jobID, i, worker)
			}
			out = append(out, Lease{
				ID: id, Job: jobID, Point: i, Rate: p.rate, Spec: j.spec,
				TTLMS: c.opts.LeaseTTL.Milliseconds(),
			})
		}
	}
	return out, nil
}

// RenewLeases extends the TTL of the given leases and reports which of
// them are no longer held (expired and possibly re-leased): the worker
// should stop counting on those.
//
// A renewal arriving in the same tick as expiry — the worker's
// heartbeat lands at exactly TTL — resolves deterministically in
// expiry's favor: the sweep runs before the renewal is considered, so
// the renewal comes back lost instead of resurrecting a lease whose
// point may already be re-leased to another worker.  Two workers can
// therefore never hold the same lease.  A renewal with no IDs is a
// bare expiry sweep.
func (c *Coordinator) RenewLeases(worker string, ids []string) (lost []string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		// Every lease dies with this incarnation; reporting them lost now
		// beats letting the worker heartbeat IDs the next incarnation
		// will never honor.
		return append(lost, ids...)
	}
	now := c.opts.Clock()
	c.expireLocked(now)
	for _, id := range ids {
		l, ok := c.leases[id]
		if !ok || l.worker != worker {
			lost = append(lost, id)
			continue
		}
		// Stale-binding guard: extend a lease only while its point still
		// acknowledges it.  A lease record whose point moved on (done, or
		// re-leased under a newer ID) is a zombie — renewing it would let
		// a second worker believe it holds live work.
		j := c.jobs[l.jobID]
		if j == nil || l.point < 0 || l.point >= len(j.points) ||
			j.points[l.point].state != pointLeased || j.points[l.point].leaseID != id {
			delete(c.leases, id)
			lost = append(lost, id)
			continue
		}
		l.expires = now.Add(c.opts.LeaseTTL)
		c.counters.renewed.Inc()
	}
	return lost
}

// ReleaseLeases returns granted leases to the pending pool at once —
// the server does so when the worker that asked for them left before
// the answer.
func (c *Coordinator) ReleaseLeases(worker string, leases []Lease) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, g := range leases {
		if l, ok := c.leases[g.ID]; ok && l.worker == worker {
			c.requeueLocked(g.ID, l)
		}
	}
}

// CompletePoint accepts one finished point.  Completions are
// idempotent per point: the first report wins (journaled before it is
// acknowledged), any later one — a worker that lost its lease mid-run,
// a retransmitted report after a coordinator bounce — is dropped and
// counted.  A completion without a live lease is still accepted when
// the point is open: after a bounce the lease table is empty, and
// discarding the finished work would violate the zero-lost guarantee.
func (c *Coordinator) CompletePoint(comp Completion) (accepted bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return false, fmt.Errorf("sweepsvc: coordinator closed")
	}
	c.expireLocked(c.opts.Clock())
	j := c.jobs[comp.Job]
	if j == nil {
		return false, fmt.Errorf("%w %q", errUnknownJob, comp.Job)
	}
	if comp.Point < 0 || comp.Point >= len(j.points) {
		return false, fmt.Errorf("sweepsvc: job %s has no point %d", comp.Job, comp.Point)
	}
	p := j.points[comp.Point]
	if p.state == pointDone {
		c.counters.duplicates.Inc()
		if c.hooks != nil && c.hooks.PointCompleted != nil {
			c.hooks.PointCompleted(comp.Job, comp.Point, true)
		}
		return false, nil
	}
	if err := c.completePointLocked(j, comp.Point, comp); err != nil {
		return false, err
	}
	// Feed the shared store so singleflight waiters and future jobs hit
	// it; the write is atomic+fsynced inside simcache.
	if len(comp.Result) > 0 && p.keyOK && c.opts.Store != nil && !comp.Failed {
		c.opts.Store.Put(p.key, comp.Result)
	}
	return true, nil
}

// completePointLocked journals and applies one completion, then
// resolves every singleflight waiter sharing the fingerprint.  Callers
// hold c.mu and have verified the point is open.
func (c *Coordinator) completePointLocked(j *job, idx int, comp Completion) error {
	p := j.points[idx]
	rec := Record{
		T: RecordPoint, Job: j.id, Point: idx,
		Row: comp.Row, Status: comp.Status, Attempts: comp.Attempts, Failed: comp.Failed,
	}
	if err := c.wal.Append(rec); err != nil {
		return err
	}
	if p.state == pointLeased {
		delete(c.leases, p.leaseID)
	}
	if p.keyOK {
		delete(c.inflight, p.key)
	}
	p.state = pointDone
	p.leaseID = ""
	p.row, p.status, p.attempts, p.failed = comp.Row, comp.Status, comp.Attempts, comp.Failed
	j.done++
	if comp.Failed {
		j.failed++
	}
	c.changedLocked()
	c.counters.completed.Inc()
	if c.hooks != nil && c.hooks.PointCompleted != nil {
		c.hooks.PointCompleted(j.id, idx, false)
	}
	// Singleflight resolution: identical pending points (other jobs)
	// complete from this execution's row.  Same fingerprint ⇒ same
	// options ⇒ same rate and result, so the row transfers verbatim.
	if p.keyOK && !comp.Failed {
		for _, otherID := range c.order {
			oj := c.jobs[otherID]
			for oi, op := range oj.points {
				if op.state != pointPending || !op.keyOK || op.key != p.key {
					continue
				}
				c.counters.merged.Inc()
				if err := c.completePointLocked(oj, oi, Completion{
					Job: otherID, Point: oi,
					Row: comp.Row, Status: comp.Status, Attempts: comp.Attempts,
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// Status reports a job's progress.
func (c *Coordinator) Status(jobID string) (JobStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[jobID]
	if j == nil {
		return JobStatus{}, fmt.Errorf("%w %q", errUnknownJob, jobID)
	}
	leased := 0
	for _, p := range j.points {
		if p.state == pointLeased {
			leased++
		}
	}
	return JobStatus{
		Job: j.id, Total: len(j.points), Done: j.done, Failed: j.failed,
		Leased: leased, Complete: j.complete(),
	}, nil
}

// Rows reports every point of jobID in rate order with its completion
// state — the streaming complement of CSV, readable while the job is
// still running so clients can print finished rows incrementally.
func (c *Coordinator) Rows(jobID string) ([]PointRow, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[jobID]
	if j == nil {
		return nil, fmt.Errorf("%w %q", errUnknownJob, jobID)
	}
	out := make([]PointRow, len(j.points))
	for i, p := range j.points {
		r := PointRow{Point: i, Rate: p.rate, Done: p.state == pointDone, Failed: p.failed}
		if p.keyOK {
			r.Fingerprint = p.key.String()
		}
		if r.Done {
			r.Row = p.row
		}
		out[i] = r
	}
	return out, nil
}

// Jobs lists admitted job IDs in admission order.
func (c *Coordinator) Jobs() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := append([]string(nil), c.order...)
	return out
}

// CSV assembles a complete job's output: the shared header plus one
// row per point in rate order — byte-identical to what a serial
// cmd/sweep with the same spec prints on stdout.  It fails while any
// point is still open.
func (c *Coordinator) CSV(jobID string) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j := c.jobs[jobID]
	if j == nil {
		return "", fmt.Errorf("%w %q", errUnknownJob, jobID)
	}
	if !j.complete() {
		return "", fmt.Errorf("sweepsvc: job %s is %d/%d complete", jobID, j.done, len(j.points))
	}
	var b strings.Builder
	b.WriteString(CSVHeader)
	b.WriteByte('\n')
	for _, p := range j.points {
		b.WriteString(p.row)
		b.WriteByte('\n')
	}
	return b.String(), nil
}
