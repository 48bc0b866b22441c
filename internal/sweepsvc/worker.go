package sweepsvc

import (
	"context"
	"fmt"
	"sync"
	"time"

	"surfbless/internal/sweepsvc/backoff"
)

// WorkerHooks are the worker's observation points for tests and the
// chaos harness (nil = disabled).
//
//hook:nil-disabled
type WorkerHooks struct {
	// LeaseAcquired fires for every lease a slot takes from the
	// coordinator, before the slot runs it.
	LeaseAcquired func(l Lease)
	// PointFinished fires after a point's execution, before its
	// completion report.
	PointFinished func(l Lease, exec Execution)
	// Drained fires when a graceful drain finishes.
	Drained func()
}

// WorkerOptions configures a worker.
type WorkerOptions struct {
	// Name identifies the worker to the coordinator (lease ownership).
	Name string
	// Client reaches the coordinator.  Required.
	Client *Client
	// Runner executes leased points.  Required.
	Runner *Runner
	// Slots is the number of points simulated concurrently (0 = 1).
	Slots int
	// Backoff paces retries of coordinator RPCs (acquire, complete)
	// through transient outages such as a coordinator bounce.
	Backoff backoff.Policy
	// RPCAttempts bounds those retries (0 = 8).
	RPCAttempts int
	// Hooks observe the worker (nil-safe).
	Hooks *WorkerHooks
}

// Worker runs Slots loops, each of which asks the coordinator for one
// lease, simulates it, reports it and asks again.  An ask that follows
// an empty answer waits at the coordinator until work may have
// appeared, so an idle slot neither sleeps nor spins.  A slot never
// holds a lease it has not started.  Two ways to stop:
//
//   - Drain (SIGTERM): stop asking, finish and report the lease each
//     slot holds, then Run returns nil.  No work is lost and nothing
//     needs requeueing.
//   - Context cancellation (SIGKILL stand-in): everything stops where
//     it is, in-flight simulations included (the context is plumbed
//     through sim.Run).  The coordinator's lease TTL requeues whatever
//     this worker held.
type Worker struct {
	o WorkerOptions
	// draining is cancelled by Drain; every ask runs under it.
	draining context.Context
	drain    context.CancelFunc

	mu   sync.Mutex
	held map[string]Lease // acquired and not yet completed
}

// NewWorker validates the options and returns an idle worker; call Run
// to start it.
func NewWorker(o WorkerOptions) (*Worker, error) {
	if o.Client == nil || o.Runner == nil {
		return nil, fmt.Errorf("sweepsvc: worker needs a client and a runner")
	}
	if o.Name == "" {
		return nil, fmt.Errorf("sweepsvc: worker needs a name")
	}
	if o.Slots < 1 {
		o.Slots = 1
	}
	if o.RPCAttempts < 1 {
		o.RPCAttempts = 8
	}
	w := &Worker{o: o, held: make(map[string]Lease)}
	w.draining, w.drain = context.WithCancel(context.Background())
	return w, nil
}

// Drain begins a graceful shutdown (idempotent): slots stop asking,
// and each finishes and reports the lease it holds.
func (w *Worker) Drain() { w.drain() }

func (w *Worker) untrack(id string) {
	w.mu.Lock()
	delete(w.held, id)
	w.mu.Unlock()
}

// heldIDs returns the IDs of the held leases and the TTL they were
// granted with.
func (w *Worker) heldIDs() (ids []string, ttl time.Duration) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for id, l := range w.held {
		ids = append(ids, id)
		ttl = time.Duration(l.TTLMS) * time.Millisecond
	}
	return ids, ttl
}

// Run starts the heartbeat and the slots and blocks until the context
// dies (returns ctx.Err()) or a drain completes (returns nil).
func (w *Worker) Run(ctx context.Context) error {
	// Asks end at a drain or with ctx; the leases in hand run on ctx.
	asks, stopAsks := context.WithCancel(ctx)
	defer stopAsks()
	defer context.AfterFunc(w.draining, stopAsks)()

	// Heartbeat at a third of the lease TTL: three missed beats forfeit
	// a lease, one never does.
	hbCtx, hbCancel := context.WithCancel(ctx)
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		w.heartbeat(hbCtx)
	}()

	var slots sync.WaitGroup
	for i := 0; i < w.o.Slots; i++ {
		slots.Add(1)
		go func() {
			defer slots.Done()
			w.slot(ctx, asks)
		}()
	}
	slots.Wait()
	hbCancel()
	<-hbDone
	if err := ctx.Err(); err != nil {
		return err
	}
	if w.o.Hooks != nil && w.o.Hooks.Drained != nil {
		w.o.Hooks.Drained()
	}
	return nil
}

// slot asks for one lease at a time and runs it until asks end.  Only
// an ask that follows an empty answer waits at the coordinator: a
// slot's first ask, and its first after a point, are answered at once.
// Asks retry with seeded backoff, so a coordinator bounce mid-sweep
// looks like a slow RPC, not a worker crash; once an outage has used
// up the attempts, the slot simply asks again.
func (w *Worker) slot(ctx, asks context.Context) {
	wait := false
	for asks.Err() == nil {
		var leases []Lease
		backoff.Retry(asks, w.o.Backoff, w.o.RPCAttempts, func(int) (err error) { //nolint:errcheck // asked again below
			leases, err = w.o.Client.Acquire(asks, w.o.Name, wait, 1)
			return err
		})
		if len(leases) == 0 {
			wait = true
			continue
		}
		l := leases[0]
		w.mu.Lock()
		w.held[l.ID] = l
		w.mu.Unlock()
		if w.o.Hooks != nil && w.o.Hooks.LeaseAcquired != nil {
			w.o.Hooks.LeaseAcquired(l)
		}
		w.runLease(ctx, l)
		wait = false
	}
}

// runLease executes one leased point and reports it.
func (w *Worker) runLease(ctx context.Context, l Lease) {
	defer w.untrack(l.ID)
	exec := w.o.Runner.RunPoint(ctx, l.Spec, l.Rate)
	if w.o.Hooks != nil && w.o.Hooks.PointFinished != nil {
		w.o.Hooks.PointFinished(l, exec)
	}
	if exec.Canceled {
		return // hard kill: the lease TTL requeues the point
	}
	// Report even when draining — the point is finished; dropping the
	// row would waste the work.  The completion retries through
	// transient coordinator outages; if the lease expired meanwhile the
	// coordinator still accepts the first report for the point.
	w.o.Client.CompleteWithRetry(ctx, w.o.Backoff, w.o.RPCAttempts, Completion{ //nolint:errcheck // TTL requeue is the backstop
		Lease: l.ID, Job: l.Job, Point: l.Point,
		Row: exec.Row, Status: exec.Status, Attempts: exec.Attempts, Failed: exec.Failed,
	})
}

// heartbeat renews held leases until its context dies.  Lost leases
// (coordinator bounced, or we were presumed dead) are dropped from the
// held set; any simulation already running for them continues and its
// completion is absorbed idempotently.
func (w *Worker) heartbeat(ctx context.Context) {
	ttl := DefaultLeaseTTL
	for {
		select {
		case <-ctx.Done():
			return
		case <-time.After(ttl / 3):
		}
		ids, leaseTTL := w.heldIDs()
		if len(ids) == 0 {
			continue
		}
		if leaseTTL > 0 {
			ttl = leaseTTL // the cadence follows the coordinator's TTL
		}
		lost, err := w.o.Client.Renew(ctx, w.o.Name, ids)
		if err != nil {
			continue // transient; the next beat retries
		}
		for _, id := range lost {
			w.untrack(id)
		}
	}
}
