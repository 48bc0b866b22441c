package sweepsvc

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpec is a small, fast sweep: 3 points on the deterministic SB
// model over a 4×4 mesh.
func testSpec() Spec {
	return Spec{
		Model: "SB", Domains: 2,
		From: 0.02, To: 0.06, Step: 0.02,
		Cycles: 200, Seed: 7,
		Width: 4, Height: 4,
	}
}

// fakeClock is a hand-cranked time source for lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func openTestCoordinator(t *testing.T, walPath string, clk *fakeClock) *Coordinator {
	t.Helper()
	o := CoordinatorOptions{WALPath: walPath, LeaseTTL: 10 * time.Second}
	if clk != nil {
		o.Clock = clk.Now
	}
	c, err := OpenCoordinator(o)
	if err != nil {
		t.Fatalf("OpenCoordinator: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCoordinatorLeaseLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), clk)

	job, points, err := c.SubmitJob(testSpec())
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if points != 3 {
		t.Fatalf("points = %d, want 3", points)
	}

	leases, err := c.AcquireLeases("w1", 2)
	if err != nil || len(leases) != 2 {
		t.Fatalf("AcquireLeases = %d leases, %v; want 2", len(leases), err)
	}
	if leases[0].Rate >= leases[1].Rate {
		t.Errorf("leases out of rate order: %v then %v", leases[0].Rate, leases[1].Rate)
	}

	// Renewal keeps a lease alive across what would otherwise be expiry.
	clk.Advance(8 * time.Second)
	if lost := c.RenewLeases("w1", []string{leases[0].ID}); len(lost) != 0 {
		t.Fatalf("renew lost %v, want none", lost)
	}
	clk.Advance(8 * time.Second) // lease 0 renewed 8s ago; lease 1 is 16s old
	got, err := c.AcquireLeases("w2", 3)
	if err != nil {
		t.Fatalf("AcquireLeases: %v", err)
	}
	// w2 should get the expired point (requeued) plus the never-leased
	// third point — not the renewed one.
	if len(got) != 2 {
		t.Fatalf("w2 got %d leases, want 2 (expired + fresh)", len(got))
	}

	// The original holder's renewal now reports the expired lease lost.
	if lost := c.RenewLeases("w1", []string{leases[0].ID, leases[1].ID}); len(lost) != 1 || lost[0] != leases[1].ID {
		t.Errorf("renew lost %v, want [%s]", lost, leases[1].ID)
	}

	st, err := c.Status(job)
	if err != nil || st.Leased != 3 || st.Done != 0 {
		t.Errorf("status = %+v, %v; want 3 leased, 0 done", st, err)
	}
}

func TestCoordinatorCompletionIdempotent(t *testing.T) {
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), nil)
	job, _, err := c.SubmitJob(testSpec())
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	leases, _ := c.AcquireLeases("w1", 1)
	if len(leases) != 1 {
		t.Fatalf("no lease granted")
	}
	comp := Completion{
		Lease: leases[0].ID, Job: job, Point: leases[0].Point,
		Row: "0.020,1,1,1,0.0100,0,0,0,0,ok", Status: "ok", Attempts: 1,
	}
	if ok, err := c.CompletePoint(comp); err != nil || !ok {
		t.Fatalf("first completion = (%v, %v), want accepted", ok, err)
	}
	// The same report again — a retransmit — must be dropped, not
	// double-counted.
	if ok, err := c.CompletePoint(comp); err != nil || ok {
		t.Fatalf("duplicate completion = (%v, %v), want dropped without error", ok, err)
	}
	st, _ := c.Status(job)
	if st.Done != 1 {
		t.Errorf("done = %d after duplicate, want 1", st.Done)
	}
}

// A completion whose lease expired (or predates a coordinator bounce)
// must still land if the point is open — the zero-lost guarantee.
func TestCoordinatorLateCompletionAccepted(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), clk)
	job, _, _ := c.SubmitJob(testSpec())
	leases, _ := c.AcquireLeases("w1", 1)
	clk.Advance(time.Minute) // lease long dead
	ok, err := c.CompletePoint(Completion{
		Lease: leases[0].ID, Job: job, Point: leases[0].Point,
		Row: "row", Status: "ok", Attempts: 1,
	})
	if err != nil || !ok {
		t.Fatalf("late completion = (%v, %v), want accepted", ok, err)
	}
	// The point must not be leased out again now that it is done.
	rest, _ := c.AcquireLeases("w2", 10)
	for _, l := range rest {
		if l.Point == leases[0].Point {
			t.Errorf("completed point %d re-leased", l.Point)
		}
	}
}

func TestCoordinatorWALResume(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal")
	c1 := openTestCoordinator(t, wal, nil)
	job, _, _ := c1.SubmitJob(testSpec())
	leases, _ := c1.AcquireLeases("w1", 2)
	if _, err := c1.CompletePoint(Completion{
		Job: job, Point: leases[0].Point, Row: "done-row", Status: "ok", Attempts: 1,
	}); err != nil {
		t.Fatalf("CompletePoint: %v", err)
	}
	c1.Close() // crash stand-in: leases held by w1 are forgotten

	c2 := openTestCoordinator(t, wal, nil)
	st, err := c2.Status(job)
	if err != nil {
		t.Fatalf("resumed Status: %v", err)
	}
	if st.Done != 1 || st.Leased != 0 || st.Total != 3 {
		t.Fatalf("resumed status = %+v, want 1 done / 0 leased / 3 total", st)
	}
	// The two unfinished points (incl. the one leased at crash time)
	// must be grantable again; the done one must not.
	got, _ := c2.AcquireLeases("w2", 10)
	if len(got) != 2 {
		t.Fatalf("resumed coordinator granted %d leases, want 2", len(got))
	}
	for _, l := range got {
		if l.Point == leases[0].Point {
			t.Errorf("done point %d re-leased after resume", l.Point)
		}
	}
}

// A torn final WAL line (kill -9 mid-Append) must not poison resume.
func TestCoordinatorWALTornTail(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal")
	c1 := openTestCoordinator(t, wal, nil)
	job, _, _ := c1.SubmitJob(testSpec())
	c1.Close()

	f, err := os.OpenFile(wal, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"t":"point","job":"` + job + `","point":1,"row":"half`) // no close, no newline
	f.Close()

	c2 := openTestCoordinator(t, wal, nil)
	if c2.Skipped() != 1 {
		t.Errorf("Skipped = %d, want 1", c2.Skipped())
	}
	st, _ := c2.Status(job)
	if st.Done != 0 {
		t.Errorf("torn point record counted as done: %+v", st)
	}
	// The journal must accept appends again, on a fresh line: a third
	// open still drops only the torn line and replays the new job.
	job2, _, err := c2.SubmitJob(testSpec())
	if err != nil {
		t.Fatalf("SubmitJob after torn tail: %v", err)
	}
	c2.Close()
	c3 := openTestCoordinator(t, wal, nil)
	if c3.Skipped() != 1 {
		t.Errorf("third open: Skipped = %d, want 1", c3.Skipped())
	}
	if st, err := c3.Status(job2); err != nil || st.Total != 3 {
		t.Errorf("job appended after the torn tail lost: %+v, %v", st, err)
	}
}

// Two jobs sharing a fingerprint: the duplicate point must never be
// leased while the first is in flight, and must complete from the
// first execution's row.
func TestCoordinatorSingleflight(t *testing.T) {
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), nil)
	spec := testSpec()
	jobA, _, _ := c.SubmitJob(spec)
	jobB, _, _ := c.SubmitJob(spec) // identical ⇒ identical fingerprints

	leases, _ := c.AcquireLeases("w1", 10)
	if len(leases) != 3 {
		t.Fatalf("granted %d leases, want 3 (job B's twins held back)", len(leases))
	}
	for _, l := range leases {
		if l.Job != jobA {
			t.Fatalf("lease from %s, want all from %s while twins in flight", l.Job, jobA)
		}
	}
	for _, l := range leases {
		if _, err := c.CompletePoint(Completion{
			Job: l.Job, Point: l.Point,
			Row: "shared-row", Status: "ok", Attempts: 1,
		}); err != nil {
			t.Fatalf("CompletePoint: %v", err)
		}
	}
	stB, _ := c.Status(jobB)
	if !stB.Complete {
		t.Fatalf("job B not completed by singleflight: %+v", stB)
	}
	csvB, err := c.CSV(jobB)
	if err != nil {
		t.Fatalf("CSV(B): %v", err)
	}
	if strings.Count(csvB, "shared-row") != 3 {
		t.Errorf("job B CSV did not reuse the executed rows:\n%s", csvB)
	}
	csvA, _ := c.CSV(jobA)
	if csvA != csvB {
		t.Errorf("identical jobs produced different CSVs")
	}
}

// A failed twin must NOT propagate: only ok/degraded rows transfer.
func TestCoordinatorSingleflightSkipsFailures(t *testing.T) {
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), nil)
	spec := testSpec()
	jobA, _, _ := c.SubmitJob(spec)
	jobB, _, _ := c.SubmitJob(spec)
	leases, _ := c.AcquireLeases("w1", 1)
	l := leases[0]
	if _, err := c.CompletePoint(Completion{
		Job: l.Job, Point: l.Point,
		Row: ErrorRow(l.Rate, "error: boom"), Status: "error: boom", Attempts: 2, Failed: true,
	}); err != nil {
		t.Fatal(err)
	}
	stB, _ := c.Status(jobB)
	if stB.Done != 0 {
		t.Errorf("failure propagated to job B: %+v", stB)
	}
	// Job B's twin point must be leasable now that nothing is in flight.
	again, _ := c.AcquireLeases("w2", 10)
	foundTwin := false
	for _, g := range again {
		if g.Job == jobB && g.Rate == l.Rate {
			foundTwin = true
		}
	}
	if !foundTwin {
		t.Errorf("job B twin of the failed point not re-leasable")
	}
	_ = jobA
}

// At exactly TTL a heartbeat renewal and lease expiry collide.  The
// tie must resolve deterministically in expiry's favor, because a
// renewal that resurrects a just-expired lease could overlap the new
// lease its point was requeued into: two workers, one work unit.
func TestCoordinatorRenewExpireAtExactTTL(t *testing.T) {
	t.Run("lazy-expiry-first", func(t *testing.T) {
		clk := &fakeClock{now: time.Unix(1000, 0)}
		c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), clk)
		if _, _, err := c.SubmitJob(testSpec()); err != nil {
			t.Fatalf("SubmitJob: %v", err)
		}
		leases, err := c.AcquireLeases("w1", 1)
		if err != nil || len(leases) != 1 {
			t.Fatalf("AcquireLeases = %v, %v; want 1 lease", leases, err)
		}
		l := leases[0]
		clk.Advance(10 * time.Second) // exactly the lease TTL
		if lost := c.RenewLeases("w1", []string{l.ID}); len(lost) != 1 || lost[0] != l.ID {
			t.Fatalf("renewal at exactly TTL lost %v, want [%s] (expiry wins ties)", lost, l.ID)
		}
		// The point is pending again and goes to a second worker.
		release, err := c.AcquireLeases("w2", 1)
		if err != nil || len(release) != 1 || release[0].Point != l.Point {
			t.Fatalf("expired point not re-leased: %v, %v", release, err)
		}
		// The original worker keeps heartbeating its dead ID: it must
		// stay lost, and w2's live lease must be untouched by it.
		if lost := c.RenewLeases("w1", []string{l.ID}); len(lost) != 1 {
			t.Errorf("dead lease resurrected: lost %v, want it reported lost", lost)
		}
		if lost := c.RenewLeases("w2", []string{release[0].ID}); len(lost) != 0 {
			t.Errorf("w2's live lease reported lost: %v", lost)
		}
	})
}

// A renewal strictly inside the TTL keeps the lease: an expiry sweep
// arriving at the original expiry instant — here another worker's
// heartbeat with no leases — must see the extended deadline, not
// requeue the point under its old one.
func TestCoordinatorRenewJustInsideTTL(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), clk)
	if _, _, err := c.SubmitJob(testSpec()); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	leases, _ := c.AcquireLeases("w1", 1)
	if len(leases) != 1 {
		t.Fatal("no lease granted")
	}
	l := leases[0]
	clk.Advance(10*time.Second - time.Nanosecond)
	if lost := c.RenewLeases("w1", []string{l.ID}); len(lost) != 0 {
		t.Fatalf("renewal inside TTL lost %v, want none", lost)
	}
	clk.Advance(time.Nanosecond) // the lease's pre-renewal expiry instant
	c.RenewLeases("w2", nil)
	if lost := c.RenewLeases("w1", []string{l.ID}); len(lost) != 0 {
		t.Fatalf("renewed lease expired at its old deadline: lost %v", lost)
	}
	got, _ := c.AcquireLeases("w2", 10)
	for _, g := range got {
		if g.Point == l.Point {
			t.Errorf("renewed point %d re-leased to w2", g.Point)
		}
	}
}

// Lease IDs must be disjoint across coordinator incarnations: WAL
// replay rebuilds jobs without advancing the sequence counter, so a
// bare counter would re-mint IDs that pre-bounce workers still
// heartbeat — and those heartbeats would extend (or their completions
// resolve) an unrelated post-bounce lease.
func TestCoordinatorLeaseIDsDisjointAcrossRestart(t *testing.T) {
	wal := filepath.Join(t.TempDir(), "wal")
	clk := &fakeClock{now: time.Unix(1000, 0)}
	c1 := openTestCoordinator(t, wal, clk)
	if _, _, err := c1.SubmitJob(testSpec()); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	pre, _ := c1.AcquireLeases("w1", 1)
	if len(pre) != 1 {
		t.Fatal("no lease granted")
	}
	c1.Close()

	clk.Advance(time.Second) // restarts take nonzero wall time
	c2 := openTestCoordinator(t, wal, clk)
	post, _ := c2.AcquireLeases("w1", 1)
	if len(post) != 1 {
		t.Fatal("no lease granted after resume")
	}
	if pre[0].ID == post[0].ID {
		t.Fatalf("lease ID %q reused across incarnations", pre[0].ID)
	}
	// The pre-bounce heartbeat must come back lost without touching the
	// live lease.
	if lost := c2.RenewLeases("w1", []string{pre[0].ID}); len(lost) != 1 {
		t.Errorf("pre-bounce lease renewal lost %v, want it reported lost", lost)
	}
	if lost := c2.RenewLeases("w1", []string{post[0].ID}); len(lost) != 0 {
		t.Errorf("live lease reported lost: %v", lost)
	}
}

// RenewLeases on a closed coordinator reports every lease lost instead
// of silently extending soft state the next incarnation will not have.
func TestCoordinatorRenewAfterCloseReportsLost(t *testing.T) {
	c := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), nil)
	if _, _, err := c.SubmitJob(testSpec()); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	leases, _ := c.AcquireLeases("w1", 1)
	if len(leases) != 1 {
		t.Fatal("no lease granted")
	}
	c.Close()
	if lost := c.RenewLeases("w1", []string{leases[0].ID}); len(lost) != 1 || lost[0] != leases[0].ID {
		t.Errorf("renew after close lost %v, want [%s]", lost, leases[0].ID)
	}
}
