package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"surfbless/internal/probe"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
)

// sweepArgs is a small, fast sweep; -no-cache keeps the test hermetic
// (no results/.simcache created in the repo).
func sweepArgs(extra ...string) []string {
	args := []string{
		"-model", "SB", "-domains", "2",
		"-from", "0.02", "-to", "0.10", "-step", "0.02",
		"-cycles", "400", "-seed", "7", "-no-cache",
	}
	return append(args, extra...)
}

func runSweep(t *testing.T, args []string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), code
}

// A parallel sweep must emit a byte-identical CSV to a serial one:
// every point is an isolated deterministic simulation and the emitter
// preserves rate order.
func TestParallelSweepMatchesSerial(t *testing.T) {
	serial, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("serial sweep exit %d", code)
	}
	for _, workers := range []string{"2", "4"} {
		parallel, _, code := runSweep(t, sweepArgs("-workers", workers))
		if code != 0 {
			t.Fatalf("-workers %s sweep exit %d", workers, code)
		}
		if parallel != serial {
			t.Errorf("-workers %s CSV differs from serial:\n--- serial ---\n%s--- parallel ---\n%s",
				workers, serial, parallel)
		}
	}
	lines := strings.Split(strings.TrimSpace(serial), "\n")
	if len(lines) != 1+5 { // header + rates 0.02..0.10
		t.Fatalf("expected 5 data rows, got %d:\n%s", len(lines)-1, serial)
	}
}

// A parallel sweep must checkpoint every point, and a resumed run must
// replay the journal instead of re-simulating, with identical output.
func TestParallelSweepCheckpointResume(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	first, _, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt))
	if code != 0 {
		t.Fatalf("first sweep exit %d", code)
	}
	resumed, stderr, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt, "-resume"))
	if code != 0 {
		t.Fatalf("resumed sweep exit %d", code)
	}
	if resumed != first {
		t.Errorf("resumed CSV differs:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	if !strings.Contains(stderr, "5 point(s) already journaled") {
		t.Errorf("resume did not replay the journal; stderr:\n%s", stderr)
	}
}

// A crash mid-append tears the checkpoint's final line.  Resuming must
// drop just that line, re-simulate its point and print the same CSV;
// the point's new record lands after the torn line, so the next resume
// replays every point.
func TestParallelSweepResumeTornTail(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	first, _, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt))
	if code != 0 {
		t.Fatalf("first sweep exit %d", code)
	}
	fi, err := os.Stat(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(ckpt, fi.Size()-10); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"4 point(s) already journaled in " + ckpt + " (1 torn line(s) dropped)",
		"5 point(s) already journaled in " + ckpt + " (1 torn line(s) dropped)",
	} {
		resumed, stderr, code := runSweep(t, sweepArgs("-workers", "4", "-checkpoint", ckpt, "-resume"))
		if code != 0 {
			t.Fatalf("resumed sweep exit %d; stderr:\n%s", code, stderr)
		}
		if resumed != first {
			t.Errorf("resumed CSV differs:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
		}
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// A point that failed is journaled as failed and never replayed: a
// resume simulates it again.  The first run times every point out; the
// resume, without the timeout, must print the plain sweep's CSV.
func TestParallelSweepResumeRetriesFailedPoints(t *testing.T) {
	args := func(extra ...string) []string {
		return sweepArgs(append([]string{"-to", "0.04", "-cycles", "5000", "-workers", "2"}, extra...)...)
	}
	plain, _, code := runSweep(t, args())
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	ckpt := filepath.Join(t.TempDir(), "sweep.ckpt")
	failed, _, code := runSweep(t, args("-attempts", "1", "-point-timeout", "1ms", "-checkpoint", ckpt))
	if code == 0 || strings.Count(failed, "timeout after 1ms") != 2 {
		t.Fatalf("want both points timed out, exit %d:\n%s", code, failed)
	}
	resumed, stderr, code := runSweep(t, args("-checkpoint", ckpt, "-resume"))
	if code != 0 {
		t.Fatalf("resumed sweep exit %d; stderr:\n%s", code, stderr)
	}
	if resumed != plain {
		t.Errorf("resume replayed a failed point:\n--- plain ---\n%s--- resumed ---\n%s", plain, resumed)
	}
	if !strings.Contains(stderr, "0 point(s) already journaled") {
		t.Errorf("failed points counted as journaled; stderr:\n%s", stderr)
	}
}

// Replay goes by point fingerprint over everything the journal holds,
// so a resume over a wider range replays the overlap and simulates only
// the new points — visible as cache misses in a fresh cache.
func TestParallelSweepResumeWiderRange(t *testing.T) {
	full, _, code := runSweep(t, sweepArgs("-workers", "2"))
	if code != 0 {
		t.Fatalf("full sweep exit %d", code)
	}
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	if _, _, code := runSweep(t, sweepArgs("-to", "0.06", "-workers", "2", "-checkpoint", ckpt)); code != 0 {
		t.Fatalf("narrow sweep exit %d", code)
	}
	wider, stderr, code := runSweep(t, sweepArgs("-workers", "2", "-checkpoint", ckpt, "-resume",
		"-no-cache=false", "-cache-dir", filepath.Join(dir, "cache")))
	if code != 0 {
		t.Fatalf("wider resume exit %d; stderr:\n%s", code, stderr)
	}
	if wider != full {
		t.Errorf("wider resume CSV differs:\n--- full ---\n%s--- resumed ---\n%s", full, wider)
	}
	for _, want := range []string{"3 point(s) already journaled", "0 hits, 2 misses"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr lacks %q:\n%s", want, stderr)
		}
	}
}

// Observed points always simulate: a -spans resume over a full journal
// replays nothing and writes every point's span file.
func TestParallelSweepResumeObservedReplaysNothing(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	first, _, code := runSweep(t, sweepArgs("-workers", "2", "-checkpoint", ckpt))
	if code != 0 {
		t.Fatalf("first sweep exit %d", code)
	}
	resumed, stderr, code := runSweep(t, sweepArgs("-workers", "2", "-checkpoint", ckpt, "-resume",
		"-spans", filepath.Join(dir, "spans.json")))
	if code != 0 {
		t.Fatalf("observed resume exit %d; stderr:\n%s", code, stderr)
	}
	if resumed != first {
		t.Errorf("observed resume CSV differs:\n--- first ---\n%s--- resumed ---\n%s", first, resumed)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "spans_r*.json")); len(files) != 5 {
		t.Errorf("observed resume wrote %d span files, want 5 (replayed points skip their files)", len(files))
	}
}

// -remote must print the exact CSV a local run of the same flags
// prints: the coordinator assembles rows rendered by the same
// sweepsvc spec/row layer the local path uses.
func TestRemoteSweepMatchesLocal(t *testing.T) {
	local, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}

	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{
		WALPath: filepath.Join(t.TempDir(), "wal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv, err := sweepsvc.NewServer("127.0.0.1:0", coord, probe.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	pol := backoff.Policy{Base: time.Millisecond, Seed: 3}
	w, err := sweepsvc.NewWorker(sweepsvc.WorkerOptions{
		Name: "w1", Client: sweepsvc.NewClient(srv.Addr()),
		Runner: &sweepsvc.Runner{Policy: pol},
		Slots:  2, Backoff: pol,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); w.Run(context.Background()) }()
	defer func() { w.Drain(); <-done }()

	remote, stderr, code := runSweep(t, sweepArgs("-remote", srv.Addr(), "-progress"))
	if code != 0 {
		t.Fatalf("remote sweep exit %d; stderr:\n%s", code, stderr)
	}
	if remote != local {
		t.Errorf("remote CSV differs from local:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
}

// A coordinator crash-restart between a rows fetch and row printing
// must not double-print, drop or reorder rows: the streaming loop only
// advances its rate-order cursor and dedups printed rows by point
// fingerprint, which is stable across WAL replays (row indexes are
// not, when a torn tail reverts points).  The hook completes two
// points, lets them print, bounces the coordinator (same WAL, same
// address) while their rows are mid-stream, then completes the rest on
// the new incarnation — stdout must still be byte-identical to a local
// sweep.
func TestRemoteSweepBouncePollPrint(t *testing.T) {
	local, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("local sweep exit %d", code)
	}

	walPath := filepath.Join(t.TempDir(), "wal")
	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: walPath})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := sweepsvc.NewServer("127.0.0.1:0", coord, probe.NewMetrics())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	defer func() { srv.Close(); coord.Close() }()

	runner := &sweepsvc.Runner{Policy: backoff.Policy{Base: time.Millisecond, Seed: 3}}
	complete := func(n int) {
		t.Helper()
		leases, err := coord.AcquireLeases("bounce-test", n)
		if err != nil {
			t.Fatalf("AcquireLeases: %v", err)
		}
		for _, l := range leases {
			ex := runner.RunPoint(context.Background(), l.Spec, l.Rate)
			if _, err := coord.CompletePoint(sweepsvc.Completion{
				Lease: l.ID, Job: l.Job, Point: l.Point,
				Row: ex.Row, Status: ex.Status, Attempts: ex.Attempts, Failed: ex.Failed,
			}); err != nil {
				t.Fatalf("CompletePoint: %v", err)
			}
		}
	}
	bounced := false
	poll := 0
	remotePollHook = func(done, total int) {
		defer func() { poll++ }()
		switch poll {
		case 0:
			// The first fetch saw an all-pending snapshot; finish two
			// points so the next fetch streams them.
			complete(2)
		case 1:
			// The streaming loop has fetched rows showing two done points
			// and will print them right after this hook returns — i.e.
			// during the outage.  Crash-restart the coordinator on the
			// same WAL and address, then finish the job on the new
			// incarnation.
			srv.Close()
			coord.Close()
			if coord, err = sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{WALPath: walPath}); err != nil {
				t.Fatalf("reopen coordinator: %v", err)
			}
			for try := 0; ; try++ {
				if srv, err = sweepsvc.NewServer(addr, coord, probe.NewMetrics()); err == nil {
					break
				}
				if try == 50 {
					t.Fatalf("rebind %s: %v", addr, err)
				}
				time.Sleep(10 * time.Millisecond)
			}
			bounced = true
			complete(3)
		}
	}
	defer func() { remotePollHook = nil }()

	remote, stderrOut, code := runSweep(t, sweepArgs("-remote", addr, "-progress"))
	if code != 0 {
		t.Fatalf("remote sweep exit %d; stderr:\n%s", code, stderrOut)
	}
	if !bounced {
		t.Fatal("test rig never bounced the coordinator")
	}
	if remote != local {
		t.Errorf("remote CSV differs from local across the bounce:\n--- local ---\n%s--- remote ---\n%s", local, remote)
	}
	seen := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(remote, "\n"), "\n") {
		if seen[line] {
			t.Errorf("row printed twice: %q", line)
		}
		seen[line] = true
	}
}

func TestBadFlagsFail(t *testing.T) {
	if _, _, code := runSweep(t, sweepArgs("-workers", "0")); code == 0 {
		t.Error("-workers 0 must fail")
	}
	if _, _, code := runSweep(t, sweepArgs("-model", "nope")); code == 0 {
		t.Error("unknown model must fail")
	}
	// A NaN bound compares false both ways, so without a finiteness
	// check it slips through the range checks into an empty sweep.
	if out, _, code := runSweep(t, sweepArgs("-from", "NaN")); code == 0 {
		t.Errorf("-from NaN must fail, printed %q", out)
	}
}

// A point that times out must leave the same row locally as through
// the service, and a timeout the spec cannot carry in whole
// milliseconds (what -remote submits) must be refused.
func TestLocalTimeoutMatchesRunner(t *testing.T) {
	args := []string{
		"-model", "SB", "-domains", "2", "-from", "0.02", "-to", "0.02", "-step", "0.02",
		"-cycles", "500000000", "-seed", "7", "-no-cache", "-attempts", "1",
	}
	local, stderr, code := runSweep(t, append(args, "-point-timeout", "1s"))
	if code == 0 {
		t.Fatalf("timed-out sweep exited 0; stderr:\n%s", stderr)
	}
	spec := sweepsvc.Spec{
		Model: "SB", Domains: 2, From: 0.02, To: 0.02, Step: 0.02,
		Cycles: 500000000, Seed: 7, PointTimeoutMS: 1000, MaxAttempts: 1,
	}
	var want bytes.Buffer
	if _, err := (&sweepsvc.Runner{}).SerialCSV(context.Background(), spec, &want); err != nil {
		t.Fatal(err)
	}
	if local != want.String() {
		t.Errorf("local timeout row differs from the service's:\n--- local ---\n%s--- runner ---\n%s", local, want.String())
	}
	if !strings.Contains(local, "timeout after 1000ms") {
		t.Errorf("no timeout status in:\n%s", local)
	}
	if _, _, code := runSweep(t, append(args, "-point-timeout", "300us")); code == 0 {
		t.Error("a sub-millisecond -point-timeout must fail")
	}
}

// A span-exporting sweep writes one loadable Chrome-trace JSON per
// point, and its CSV is identical to an unobserved sweep — the
// exporter rides the probe's event stream without touching results.
func TestSweepSpansExport(t *testing.T) {
	plain, _, code := runSweep(t, sweepArgs("-workers", "1"))
	if code != 0 {
		t.Fatalf("plain sweep exit %d", code)
	}
	dir := t.TempDir()
	spans := filepath.Join(dir, "spans.json")
	observed, _, code := runSweep(t, sweepArgs("-workers", "1", "-spans", spans))
	if code != 0 {
		t.Fatalf("spans sweep exit %d", code)
	}
	if observed != plain {
		t.Errorf("span export changed the CSV:\n--- plain ---\n%s--- spans ---\n%s", plain, observed)
	}
	files, err := filepath.Glob(filepath.Join(dir, "spans_r*.json"))
	if err != nil || len(files) != 5 {
		t.Fatalf("got %d span files (%v), want 5", len(files), err)
	}
	raw, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("%s is not valid Chrome trace JSON: %v", files[0], err)
	}
	if len(ct.TraceEvents) == 0 {
		t.Errorf("%s holds no trace events", files[0])
	}
}

// A timed-out attempt still closes its span file: the file must parse
// as Chrome-trace JSON even though the run stopped mid-flight.
func TestSweepSpansSurviveTimeout(t *testing.T) {
	dir := t.TempDir()
	_, stderr, code := runSweep(t, []string{
		"-model", "SB", "-domains", "2", "-from", "0.02", "-to", "0.02", "-step", "0.02",
		"-cycles", "500000000", "-seed", "7", "-no-cache", "-attempts", "1", "-point-timeout", "50ms",
		"-spans", filepath.Join(dir, "s.json"),
	})
	if code == 0 || !strings.Contains(stderr, "timeout after 50ms") {
		t.Fatalf("want a timed-out point, exit %d; stderr:\n%s", code, stderr)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "s_r0.020.json"))
	if err != nil {
		t.Fatal(err)
	}
	var ct struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &ct); err != nil {
		t.Fatalf("timed-out point's span file (%d bytes) is not valid Chrome trace JSON: %v", len(raw), err)
	}
}

// A point that degrades under -flight-dir leaves a replayable dump of
// its final cycles: two frozen routers wedge WH until the watchdog
// trips, and the point's finish hook dumps the recorder that tapped
// the run.
func TestSweepFlightDir(t *testing.T) {
	dir := t.TempDir()
	plan := filepath.Join(dir, "plan.json")
	err := os.WriteFile(plan, []byte(`{"Events":[{"Kind":"router-freeze","Node":27,"At":0},{"Kind":"router-freeze","Node":36,"At":0}]}`), 0o644)
	if err != nil {
		t.Fatal(err)
	}
	flightDir := filepath.Join(dir, "flight")
	stdout, stderr, code := runSweep(t, []string{
		"-model", "WH", "-faults", plan, "-from", "0.3", "-to", "0.3",
		"-cycles", "3000", "-seed", "1", "-no-cache", "-flight-dir", flightDir,
	})
	if code != 0 || !strings.Contains(stdout, "degraded") {
		t.Fatalf("want a degraded row, exit %d; stdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	path := filepath.Join(flightDir, "sweep_WH_r0.300.flight.json")
	if !strings.Contains(stderr, "flight dump: "+path) {
		t.Errorf("stderr does not name the dump %s:\n%s", path, stderr)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	d, err := probe.ReadFlightDump(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) == 0 {
		t.Error("flight dump holds no events")
	}
	if !strings.Contains(d.Reason, "fault-wedge") {
		t.Errorf("dump reason %q does not name the fault wedge", d.Reason)
	}
}
