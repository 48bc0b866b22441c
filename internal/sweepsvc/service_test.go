package sweepsvc

import (
	"context"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc/backoff"
)

// quickPolicy keeps test retries fast and deterministic.
func quickPolicy(seed int64) backoff.Policy {
	return backoff.Policy{Base: time.Millisecond, Max: 10 * time.Millisecond, Factor: 2, Jitter: 0.5, Seed: seed}
}

// startService spins up a coordinator + HTTP server on an ephemeral
// port.
func startService(t *testing.T, walPath string, store *simcache.Cache, m *probe.Metrics) (*Coordinator, *Server) {
	t.Helper()
	coord, err := OpenCoordinator(CoordinatorOptions{
		WALPath: walPath, Store: store, LeaseTTL: 2 * time.Second, Metrics: m,
	})
	if err != nil {
		t.Fatalf("OpenCoordinator: %v", err)
	}
	srv, err := NewServer("127.0.0.1:0", coord, m)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close(); coord.Close() })
	return coord, srv
}

// The full service path — submit over HTTP, two workers pulling
// leases, CSV assembled by the coordinator — must reproduce the serial
// reference byte for byte.
func TestServiceEndToEndMatchesSerial(t *testing.T) {
	dir := t.TempDir()
	m := probe.NewMetrics()
	_, srv := startService(t, filepath.Join(dir, "wal"), nil, m)
	client := NewClient(srv.Addr())
	ctx := context.Background()

	spec := testSpec()
	job, points, err := client.Submit(ctx, spec)
	if err != nil || points != 3 {
		t.Fatalf("Submit = (%s, %d, %v), want 3 points", job, points, err)
	}

	var wg sync.WaitGroup
	wctx, stopWorkers := context.WithCancel(ctx)
	defer stopWorkers()
	workers := make([]*Worker, 2)
	for i := range workers {
		w, err := NewWorker(WorkerOptions{
			Name:   "w" + string(rune('1'+i)),
			Client: client,
			Runner: &Runner{Policy: quickPolicy(int64(i))},
			Slots:  2, Backoff: quickPolicy(int64(10 + i)),
		})
		if err != nil {
			t.Fatalf("NewWorker: %v", err)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(wctx)
		}()
	}

	deadline := time.After(30 * time.Second)
	for {
		st, err := client.Status(ctx, job)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.Complete {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("job not complete: %+v", st)
		case <-time.After(20 * time.Millisecond):
		}
	}
	for _, w := range workers {
		w.Drain()
	}
	wg.Wait()

	got, err := client.CSV(ctx, job)
	if err != nil {
		t.Fatalf("CSV: %v", err)
	}
	var want strings.Builder
	ref := &Runner{Policy: quickPolicy(99)}
	if _, err := ref.SerialCSV(ctx, spec, &want); err != nil {
		t.Fatalf("SerialCSV: %v", err)
	}
	if got != want.String() {
		t.Errorf("service CSV differs from serial reference:\n--- service ---\n%s--- serial ---\n%s", got, want.String())
	}
}

// A SIGTERM drain must finish the point its slot holds (the row lands
// at the coordinator) and leave every other point pending, so another
// worker can take them at once, without waiting out the TTL.  The
// drain starts from the hook that fires when the one slot takes its
// first lease, so no timing decides what the worker holds.
func TestWorkerDrainFinishesInFlightAndReleasesRest(t *testing.T) {
	dir := t.TempDir()
	coord, srv := startService(t, filepath.Join(dir, "wal"), nil, nil)
	client := NewClient(srv.Addr())
	ctx := context.Background()

	job, points, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}

	var w *Worker
	acquired, drained := 0, 0
	w, err = NewWorker(WorkerOptions{
		Name: "drainee", Client: client,
		Runner: &Runner{Policy: quickPolicy(1)},
		Slots:  1, Backoff: quickPolicy(2),
		Hooks: &WorkerHooks{
			LeaseAcquired: func(Lease) { acquired++; w.Drain() },
			Drained:       func() { drained++ },
		},
	})
	if err != nil {
		t.Fatalf("NewWorker: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Run after drain = %v, want nil", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("drain did not complete")
	}
	if acquired != 1 || drained != 1 {
		t.Errorf("worker took %d lease(s) and drained %d time(s), want 1 and 1", acquired, drained)
	}
	st, _ := coord.Status(job)
	if st.Done != 1 {
		t.Errorf("in-flight point not completed during drain: %+v", st)
	}
	if st.Leased != 0 {
		t.Errorf("%d leases still held after drain, want 0", st.Leased)
	}
	// The other points must be grantable right now (no TTL wait).
	leases, _ := coord.AcquireLeases("successor", 10)
	if len(leases) != points-1 {
		t.Errorf("successor got %d leases immediately after drain, want %d", len(leases), points-1)
	}
}

// Store-backed dedup: a second identical job must be satisfied from
// the shared result store without granting a single lease.
func TestServiceStoreSatisfiesRepeatJob(t *testing.T) {
	dir := t.TempDir()
	store, err := simcache.New(simcache.Options{Dir: filepath.Join(dir, "cache")})
	if err != nil {
		t.Fatalf("simcache.New: %v", err)
	}
	m := probe.NewMetrics()
	coord, srv := startService(t, filepath.Join(dir, "wal"), store, m)
	client := NewClient(srv.Addr())
	ctx := context.Background()

	spec := testSpec()
	jobA, _, _ := client.Submit(ctx, spec)

	// One worker whose runner shares the store: its results populate it.
	w, err := NewWorker(WorkerOptions{
		Name: "w1", Client: client,
		Runner: &Runner{Cache: store, Policy: quickPolicy(1)},
		Slots:  2, Backoff: quickPolicy(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()
	waitComplete(t, client, jobA, 30*time.Second)
	w.Drain()
	<-done

	// Second identical job: no worker is running, so only the store can
	// finish it — at lease-acquisition time.
	jobB, _, _ := client.Submit(ctx, spec)
	if leases, _ := coord.AcquireLeases("probe", 10); len(leases) != 0 {
		t.Fatalf("granted %d leases for a fully cached job, want 0", len(leases))
	}
	stB, _ := client.Status(ctx, jobB)
	if !stB.Complete {
		t.Fatalf("cached job not complete: %+v", stB)
	}
	csvA, _ := client.CSV(ctx, jobA)
	csvB, _ := client.CSV(ctx, jobB)
	if csvA != csvB {
		t.Errorf("store-satisfied CSV differs from executed CSV:\nA:\n%s\nB:\n%s", csvA, csvB)
	}
	if !strings.Contains(metricsText(m), "surfbless_sweepd_store_hits_total 3") {
		t.Errorf("store hits not counted:\n%s", metricsText(m))
	}
}

func waitComplete(t *testing.T, client *Client, job string, timeout time.Duration) {
	t.Helper()
	deadline := time.After(timeout)
	for {
		st, err := client.Status(context.Background(), job)
		if err != nil {
			t.Fatalf("Status: %v", err)
		}
		if st.Complete {
			return
		}
		select {
		case <-deadline:
			t.Fatalf("job %s not complete: %+v", job, st)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

func metricsText(m *probe.Metrics) string {
	var b strings.Builder
	m.WritePrometheus(&b)
	return b.String()
}
