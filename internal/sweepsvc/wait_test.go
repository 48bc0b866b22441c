package sweepsvc

import (
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// The coordinator holds a lease ask that finds no work, and a rows
// request whose job has not moved, until its change signal fires.
// These tests park such requests, make the change, and check the
// answer arrives well before the wait's bound.

// serverFrames counts the goroutines of this process that are inside
// a Server method (a handler or its wait), or, with wait set, inside
// the wait only.
func serverFrames(wait bool) int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	frame := "sweepsvc.(*Server)."
	if wait {
		frame += "await("
	}
	count := 0
	for _, g := range strings.Split(string(buf[:n]), "\n\n") {
		if strings.Contains(g, frame) {
			count++
		}
	}
	return count
}

// waitFrames waits until exactly want goroutines match serverFrames.
func waitFrames(t *testing.T, wait bool, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for serverFrames(wait) != want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutine(s) in the server (wait only: %v), want %d", serverFrames(wait), wait, want)
		}
		time.Sleep(time.Millisecond)
	}
}

type askResult struct {
	leases []Lease
	err    error
	took   time.Duration
}

// parkAsk sends a waiting lease ask for worker and returns once the
// server holds it; the answer arrives on the channel, timed from the
// moment the ask was parked.
func parkAsk(t *testing.T, ctx context.Context, client *Client, worker string, parked int) <-chan askResult {
	t.Helper()
	out := make(chan askResult, 1)
	start := make(chan time.Time, 1)
	go func() {
		ls, err := client.Acquire(ctx, worker, true, 1)
		out <- askResult{leases: ls, err: err, took: time.Since(<-start)}
	}()
	waitFrames(t, true, parked)
	start <- time.Now()
	return out
}

// answer receives one ask's result and checks it arrived well before
// the wait's bound.
func answer(t *testing.T, ch <-chan askResult) askResult {
	t.Helper()
	select {
	case r := <-ch:
		if r.took >= waitBound/2 {
			t.Errorf("ask answered after %v, want well under the %v bound", r.took, waitBound)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatal("waiting ask never answered")
		return askResult{}
	}
}

func TestCoordinatorWaitingAskWakesOnSubmit(t *testing.T) {
	_, srv := startService(t, filepath.Join(t.TempDir(), "wal"), nil, nil)
	client := NewClient(srv.Addr())
	ctx := context.Background()
	waitFrames(t, true, 0)

	got := parkAsk(t, ctx, client, "w1", 1)
	job, _, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// An answer at the bound would be empty: the lease proves the
	// submit woke the ask.
	if r := answer(t, got); r.err != nil || len(r.leases) != 1 || r.leases[0].Job != job {
		t.Fatalf("waiting ask = %+v, want one lease of %s", r, job)
	}
}

func TestCoordinatorWaitingAskWakesOnRequeue(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	coord := openTestCoordinator(t, filepath.Join(t.TempDir(), "wal"), clk)
	srv, err := NewServer("127.0.0.1:0", coord, nil)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	client := NewClient(srv.Addr())
	waitFrames(t, true, 0)

	if _, _, err := coord.SubmitJob(testSpec()); err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	held, _ := coord.AcquireLeases("w1", 10)
	if len(held) != 3 {
		t.Fatalf("w1 holds %d leases, want all 3", len(held))
	}
	got := parkAsk(t, context.Background(), client, "w2", 1)
	// w1 goes silent; the next heartbeat anyone sends expires its
	// leases, and the requeue wakes the parked ask.
	clk.Advance(10 * time.Second)
	if lost := coord.RenewLeases("w3", nil); len(lost) != 0 {
		t.Fatalf("empty renewal lost %v", lost)
	}
	if r := answer(t, got); r.err != nil || len(r.leases) != 1 || r.leases[0].Point != held[0].Point {
		t.Fatalf("waiting ask = %+v, want the requeued point %d", r, held[0].Point)
	}
}

func TestCoordinatorRowsWaitWakesOnCompletion(t *testing.T) {
	coord, srv := startService(t, filepath.Join(t.TempDir(), "wal"), nil, nil)
	client := NewClient(srv.Addr())
	ctx := context.Background()
	waitFrames(t, true, 0)

	job, _, err := client.Submit(ctx, testSpec())
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	rows, err := client.Rows(ctx, job, -1)
	if done, _ := CountDone(rows); err != nil || len(rows) != 3 || done != 0 {
		t.Fatalf("Rows = %d rows, %d done, %v; want 3 rows, none done", len(rows), done, err)
	}
	type rowsResult struct {
		rows []PointRow
		err  error
		took time.Duration
	}
	got := make(chan rowsResult, 1)
	start := make(chan time.Time, 1)
	go func() {
		rows, err := client.Rows(ctx, job, 0)
		got <- rowsResult{rows, err, time.Since(<-start)}
	}()
	waitFrames(t, true, 1)
	start <- time.Now()
	leases, _ := coord.AcquireLeases("w1", 1)
	if _, err := coord.CompletePoint(Completion{
		Lease: leases[0].ID, Job: job, Point: leases[0].Point, Row: "row", Status: "ok", Attempts: 1,
	}); err != nil {
		t.Fatalf("CompletePoint: %v", err)
	}
	select {
	case r := <-got:
		if done, _ := CountDone(r.rows); r.err != nil || done != 1 || !r.rows[leases[0].Point].Done {
			t.Fatalf("waiting rows = %d done, %v; want the completed point", done, r.err)
		}
		if r.took >= waitBound/2 {
			t.Errorf("rows answered after %v, want well under the %v bound", r.took, waitBound)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiting rows request never answered")
	}
}

// Closing the server and the coordinator ends every waiting request at
// once and leaves no handler goroutine behind.
func TestCoordinatorCloseEndsWaits(t *testing.T) {
	coord, srv := startService(t, filepath.Join(t.TempDir(), "wal"), nil, nil)
	client := NewClient(srv.Addr())
	ctx := context.Background()
	waitFrames(t, false, 0)

	job, _, err := coord.SubmitJob(testSpec())
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if held, _ := coord.AcquireLeases("w0", 10); len(held) != 3 {
		t.Fatalf("w0 holds %d leases, want all 3", len(held))
	}
	asks := []<-chan askResult{
		parkAsk(t, ctx, client, "w1", 1),
		parkAsk(t, ctx, client, "w2", 2),
	}
	rowsDone := make(chan error, 1)
	go func() {
		_, err := client.Rows(ctx, job, 0)
		rowsDone <- err
	}()
	waitFrames(t, true, 3)

	start := time.Now()
	srv.Close()
	coord.Close()
	for _, ask := range asks {
		answer(t, ask)
	}
	select {
	case <-rowsDone:
	case <-time.After(10 * time.Second):
		t.Fatal("waiting rows request never ended")
	}
	waitFrames(t, false, 0)
	if took := time.Since(start); took >= waitBound/2 {
		t.Errorf("close ended the waits after %v, want well under the %v bound", took, waitBound)
	}
}

// An ask whose client leaves must not strand a lease: a waiting ask
// stops waiting at once, and an ask granted after its client left
// hands the lease straight back.
func TestCoordinatorAskerGoneLeavesNoLease(t *testing.T) {
	coord, srv := startService(t, filepath.Join(t.TempDir(), "wal"), nil, nil)
	waitFrames(t, true, 0)
	ask := func(ctx context.Context) {
		req := httptest.NewRequest(http.MethodPost, "/api/lease",
			strings.NewReader(`{"worker":"gone","max":1,"wait":true}`)).WithContext(ctx)
		srv.handleLease(httptest.NewRecorder(), req)
	}

	// The client leaves while its ask waits.
	ctx, cancel := context.WithCancel(context.Background())
	handled := make(chan time.Time, 1)
	go func() {
		ask(ctx)
		handled <- time.Now()
	}()
	waitFrames(t, true, 1)
	left := time.Now()
	cancel()
	if took := (<-handled).Sub(left); took >= waitBound/2 {
		t.Errorf("ask outlived its client by %v, want well under the %v bound", took, waitBound)
	}
	job, points, err := coord.SubmitJob(testSpec())
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	if st, _ := coord.Status(job); st.Leased != 0 {
		t.Fatalf("%d lease(s) granted to a departed asker", st.Leased)
	}

	// The client left before its ask was served: the grant comes back.
	ask(ctx)
	if st, _ := coord.Status(job); st.Leased != 0 {
		t.Fatalf("%d lease(s) stranded by a departed asker", st.Leased)
	}
	if got, _ := coord.AcquireLeases("successor", 10); len(got) != points {
		t.Errorf("successor got %d leases, want all %d", len(got), points)
	}
}
