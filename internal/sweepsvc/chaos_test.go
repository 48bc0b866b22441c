package sweepsvc

// The chaos harness: an in-process coordinator + worker fleet under a
// deterministic killer that hard-kills and restarts workers and
// bounces the coordinator (same WAL, new port) mid-sweep.  The
// acceptance bar is exact: the final CSV of every job must be
// byte-identical to the serial reference runner's output — zero lost
// points, zero duplicated points — and the kills must have actually
// bitten (leases requeued, coordinator resumed from its journal).
//
// Everything runs in one process so `make chaos` can soak it under
// -race: the kills are context cancellations (the same signal path a
// SIGKILL'd worker's simulations never get to see — from the
// coordinator's perspective both are a worker that stopped talking).

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// chaosRand is a splitmix64 sequence: the killer's deterministic
// schedule source.
type chaosRand struct{ s uint64 }

func (r *chaosRand) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// between returns a duration in [lo, hi) from the sequence.
func (r *chaosRand) between(lo, hi time.Duration) time.Duration {
	return lo + time.Duration(r.next()%uint64(hi-lo))
}

// chaosHarness owns the coordinator (bouncing it reuses the WAL) and
// the worker fleet (killing one cancels its context mid-simulation).
type chaosHarness struct {
	t       *testing.T
	walPath string

	mu    sync.Mutex
	coord *Coordinator
	srv   *Server
	addr  atomic.Value // string: current coordinator address

	expired     atomic.Int64 // leases forfeited across ALL coordinator incarnations
	completions atomic.Int64 // accepted completions across incarnations
	bounces     atomic.Int64
	kills       atomic.Int64
	restarts    atomic.Int64
	biteBLESS   atomic.Bool   // armed after the last bounce: kill the next BLESS lease's worker
	bitten      atomic.Int64  // workers killed holding a BLESS lease
	progressCh  chan struct{} // pinged per completion; drives the killer

	workers  []*chaosWorker
	workerWG sync.WaitGroup
}

type chaosWorker struct {
	name string
	kill context.CancelFunc
	done chan struct{}
}

func (h *chaosHarness) client() *Client {
	return &Client{Base: func() string { return "http://" + h.addr.Load().(string) }}
}

// startCoordinator (re)opens the WAL and serves it on a fresh port.
func (h *chaosHarness) startCoordinator() {
	h.t.Helper()
	coord, err := OpenCoordinator(CoordinatorOptions{
		WALPath:  h.walPath,
		LeaseTTL: 400 * time.Millisecond,
		Hooks: &Hooks{
			LeaseExpired: func(string, int, string) { h.expired.Add(1) },
			PointCompleted: func(_ string, _ int, dup bool) {
				if dup {
					return
				}
				h.completions.Add(1)
				select { // non-blocking: the hook runs under the coordinator lock
				case h.progressCh <- struct{}{}:
				default:
				}
			},
		},
	})
	if err != nil {
		h.t.Fatalf("OpenCoordinator: %v", err)
	}
	srv, err := NewServer("127.0.0.1:0", coord, nil)
	if err != nil {
		h.t.Fatalf("NewServer: %v", err)
	}
	h.mu.Lock()
	h.coord, h.srv = coord, srv
	h.mu.Unlock()
	h.addr.Store(srv.Addr())
}

// bounce crash-restarts the coordinator: listener gone, lease table
// forgotten, WAL replayed.  The gap is real — worker RPCs fail and
// retry through it.
func (h *chaosHarness) bounce() {
	h.mu.Lock()
	srv, coord := h.srv, h.coord
	h.mu.Unlock()
	srv.Close()
	coord.Close()
	time.Sleep(50 * time.Millisecond) // a visible outage window
	h.startCoordinator()
	h.bounces.Add(1)
}

// unleased returns the points of job that are neither done, failed
// nor leased at the current coordinator.
func (h *chaosHarness) unleased(job string) int {
	h.mu.Lock()
	coord := h.coord
	h.mu.Unlock()
	st, err := coord.Status(job)
	if err != nil {
		h.t.Errorf("Status(%s): %v", job, err)
		return 0
	}
	return st.Total - st.Done - st.Failed - st.Leased
}

// startWorker launches one fleet member with its own kill switch.
// Once biteBLESS is armed, the first worker to take a lease of the
// BLESS job dies before it runs it: no completion and no heartbeat
// follow, and the job has no twin to finish the point by singleflight,
// so only the lease's TTL can requeue it.
func (h *chaosHarness) startWorker(name string) *chaosWorker {
	h.t.Helper()
	pol := quickPolicy(int64(len(name)) + h.kills.Load())
	ctx, kill := context.WithCancel(context.Background())
	cw := &chaosWorker{name: name, kill: kill, done: make(chan struct{})}
	w, err := NewWorker(WorkerOptions{
		Name:   name,
		Client: h.client(),
		Runner: &Runner{Policy: pol},
		Slots:  1, Backoff: pol, RPCAttempts: 4,
		Hooks: &WorkerHooks{LeaseAcquired: func(l Lease) {
			if l.Spec.Model == "BLESS" && h.biteBLESS.CompareAndSwap(true, false) {
				kill()
				h.bitten.Add(1)
			}
		}},
	})
	if err != nil {
		h.t.Fatalf("NewWorker: %v", err)
	}
	h.workerWG.Add(1)
	go func() {
		defer h.workerWG.Done()
		defer close(cw.done)
		w.Run(ctx)
	}()
	return cw
}

func TestChaosWorkerKillsAndCoordinatorBounces(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak skipped in -short")
	}
	dir := t.TempDir()
	h := &chaosHarness{
		t:          t,
		walPath:    filepath.Join(dir, "sweepd.wal"),
		progressCh: make(chan struct{}, 64),
	}
	h.startCoordinator()

	// Two jobs with distinct seeds (disjoint fingerprints) plus one
	// twin of the first (exercises singleflight under fire).
	specs := []Spec{
		{Model: "SB", Domains: 2, From: 0.02, To: 0.16, Step: 0.02, Cycles: 6000, Seed: 7, Width: 4, Height: 4},
		{Model: "BLESS", Domains: 2, From: 0.02, To: 0.16, Step: 0.02, Cycles: 6000, Seed: 8, Width: 4, Height: 4},
		{Model: "SB", Domains: 2, From: 0.02, To: 0.16, Step: 0.02, Cycles: 6000, Seed: 7, Width: 4, Height: 4},
	}
	client := h.client()
	ctx := context.Background()
	jobs := make([]string, len(specs))
	for i, s := range specs {
		job, points, err := client.Submit(ctx, s)
		if err != nil || points != 8 {
			t.Fatalf("Submit %d = (%s, %d, %v), want 8 points", i, job, points, err)
		}
		jobs[i] = job
	}

	// The fleet.
	const fleet = 3
	for i := 0; i < fleet; i++ {
		h.workers = append(h.workers, h.startWorker(fmt.Sprintf("w%d", i)))
	}

	// The killer is event-driven: every time the completion count
	// crosses the next threshold it hard-kills a (deterministically
	// chosen) worker and restarts it a beat later, or bounces the
	// coordinator — so the chaos always lands mid-sweep no matter how
	// fast the points simulate.  It never waits out a restart: every
	// completion is looked at as it comes, so a due bounce fires even
	// when points complete in a burst.
	const totalPoints = 3 * 8
	killerDone := make(chan struct{})
	stopKiller := make(chan struct{})
	go func() {
		defer close(killerDone)
		r := &chaosRand{s: 42}
		bounceAt := []int64{6, 14}
		nextKill := int64(2)
		down := -1 // the killed worker awaiting its restart
		var restart <-chan time.Time
		revive := func() {
			h.workers[down] = h.startWorker(h.workers[down].name)
			h.restarts.Add(1)
			down, restart = -1, nil
		}
		for {
			select {
			case <-stopKiller:
				return
			case <-restart:
				revive()
				continue
			case <-h.progressCh:
			}
			n := h.completions.Load()
			// Bounces come first, also in the tail.  The last one arms
			// the BLESS bite, which needs a BLESS point no lease holds
			// yet, so it fires at its count or once the BLESS job is
			// down to a few unleased points, whichever comes first.
			for len(bounceAt) > 0 && (n >= bounceAt[0] || len(bounceAt) == 1 && h.unleased(jobs[1]) <= 4) {
				bounceAt = bounceAt[1:]
				h.bounce()
				if len(bounceAt) == 0 {
					// A bounce forgets every lease, so a lease
					// stranded from here on can only expire.
					h.biteBLESS.Store(true)
				}
			}
			if n >= totalPoints-2 {
				if down >= 0 {
					revive()
				}
				return // leave the tail undisturbed so the run converges
			}
			if n >= nextKill && down < 0 {
				nextKill = n + 2
				down = int(r.next() % fleet)
				h.workers[down].kill()
				<-h.workers[down].done
				h.kills.Add(1)
				restart = time.After(r.between(10*time.Millisecond, 60*time.Millisecond))
			}
		}
	}()

	// Wait for every job to complete — through kills and bounces.
	deadline := time.After(120 * time.Second)
	for _, job := range jobs {
		for {
			st, err := client.Status(ctx, job)
			if err != nil {
				// Coordinator mid-bounce; try again.
				select {
				case <-deadline:
					t.Fatalf("job %s: status unavailable at deadline: %v", job, err)
				case <-time.After(50 * time.Millisecond):
				}
				continue
			}
			if st.Complete {
				break
			}
			select {
			case <-deadline:
				t.Fatalf("job %s incomplete at deadline: %+v (kills=%d bounces=%d expired=%d)",
					job, st, h.kills.Load(), h.bounces.Load(), h.expired.Load())
			case <-time.After(30 * time.Millisecond):
			}
		}
	}
	close(stopKiller)
	<-killerDone
	for _, cw := range h.workers {
		cw.kill()
		<-cw.done
	}
	h.workerWG.Wait()

	// The acceptance bar: every job's CSV must be byte-identical to the
	// serial reference — zero lost, zero duplicated, zero reordered
	// points — despite the kills and bounces.
	ref := &Runner{Policy: quickPolicy(99)}
	for i, job := range jobs {
		got, err := client.CSV(ctx, job)
		if err != nil {
			t.Fatalf("CSV(%s): %v", job, err)
		}
		var want strings.Builder
		if _, err := ref.SerialCSV(ctx, specs[i], &want); err != nil {
			t.Fatalf("SerialCSV: %v", err)
		}
		if got != want.String() {
			t.Errorf("job %s CSV diverged from serial reference:\n--- service ---\n%s--- serial ---\n%s",
				job, got, want.String())
		}
		rows := strings.Split(strings.TrimSpace(got), "\n")
		if len(rows) != 1+8 {
			t.Errorf("job %s: %d rows, want header + 8", job, len(rows)-1)
		}
	}

	// The chaos must have been real.
	if h.kills.Load() == 0 && h.bounces.Load() == 0 {
		t.Fatal("killer never fired; the harness proved nothing")
	}
	t.Logf("chaos: %d kills, %d restarts, %d coordinator bounces, %d leases expired",
		h.kills.Load(), h.restarts.Load(), h.bounces.Load(), h.expired.Load())
	if h.bitten.Load() == 0 {
		t.Fatal("no worker took a BLESS lease after the last bounce; lease expiry went untested")
	}
	if h.expired.Load() < 1 {
		t.Fatal("the stranded BLESS lease completed without expiring")
	}

	h.mu.Lock()
	defer h.mu.Unlock()
	h.srv.Close()
	h.coord.Close()
}

// A coordinator killed between WAL appends must resume with exactly
// the journaled points done — nothing forgotten, nothing invented —
// and finish the remainder with a fresh worker.
func TestChaosCoordinatorResumeMidJob(t *testing.T) {
	dir := t.TempDir()
	wal := filepath.Join(dir, "wal")
	spec := testSpec()

	c1, err := OpenCoordinator(CoordinatorOptions{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	job, _, _ := c1.SubmitJob(spec)
	runner := &Runner{Policy: quickPolicy(1)}
	leases, _ := c1.AcquireLeases("w1", 1)
	exec := runner.RunPoint(context.Background(), spec, leases[0].Rate)
	if _, err := c1.CompletePoint(Completion{
		Job: job, Point: leases[0].Point,
		Row: exec.Row, Status: exec.Status, Attempts: exec.Attempts, Failed: exec.Failed,
	}); err != nil {
		t.Fatal(err)
	}
	c1.Close() // crash: one point journaled, one lease in flight, one pending

	c2, err := OpenCoordinator(CoordinatorOptions{WALPath: wal})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	st, _ := c2.Status(job)
	if st.Done != 1 || st.Leased != 0 {
		t.Fatalf("resume status = %+v, want exactly the journaled point done", st)
	}
	for {
		ls, _ := c2.AcquireLeases("w2", 1)
		if len(ls) == 0 {
			break
		}
		e := runner.RunPoint(context.Background(), ls[0].Spec, ls[0].Rate)
		if _, err := c2.CompletePoint(Completion{
			Job: ls[0].Job, Point: ls[0].Point,
			Row: e.Row, Status: e.Status, Attempts: e.Attempts, Failed: e.Failed,
		}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := c2.CSV(job)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	if _, err := runner.SerialCSV(context.Background(), spec, &want); err != nil {
		t.Fatal(err)
	}
	if got != want.String() {
		t.Errorf("resumed CSV diverged:\n--- resumed ---\n%s--- serial ---\n%s", got, want.String())
	}
}
