// Command sweepd is the sweep-service coordinator: it accepts sweep
// job specs over HTTP, shards them into lease-based work units for a
// cmd/sweepworker fleet, and journals every state transition to a
// crash-safe WAL so a restart mid-sweep resumes exactly where it
// stopped — zero lost and zero duplicated points (DESIGN.md §16).
//
// Usage:
//
//	sweepd [-addr 127.0.0.1:8080] [-wal results/sweepd.wal]
//	       [-cache-dir results/.simcache] [-no-cache]
//	       [-lease-ttl 10s]
//
// Endpoints: POST/GET /api/jobs, GET /api/jobs/{id}[/rows|/csv], POST
// /api/lease|renew|complete, /healthz, and /metrics exposing the
// lease/requeue/completion/singleflight counters in Prometheus text
// format.  An idle worker's lease ask, and a rows request whose job
// has not moved, wait at the coordinator for up to a second.
//
// Submit with `sweep -remote ADDR <usual sweep flags>`, or directly:
//
//	curl -d '{"spec":{"model":"SB","domains":2,"from":0.02,"to":0.1,
//	          "step":0.02,"cycles":10000,"seed":1}}' \
//	     http://127.0.0.1:8080/api/jobs
//
// SIGINT/SIGTERM shut the listener down; the WAL already holds every
// acknowledged transition, so a later restart with the same -wal
// resumes the open jobs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"surfbless/internal/probe"
	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	walPath := fs.String("wal", filepath.Join("results", "sweepd.wal"), "crash-safe job/point journal")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "shared result-store directory")
	noCache := fs.Bool("no-cache", false, "run without the shared result store")
	leaseTTL := fs.Duration("lease-ttl", sweepsvc.DefaultLeaseTTL, "lease lifetime between worker heartbeats")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweepd:", err)
		return 1
	}

	var store *simcache.Cache
	if !*noCache {
		var err error
		if store, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			return fatal(err)
		}
	}
	if dir := filepath.Dir(*walPath); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fatal(err)
		}
	}

	metrics := probe.NewMetrics()
	if store != nil {
		store.ExposeMetrics(metrics)
	}
	coord, err := sweepsvc.OpenCoordinator(sweepsvc.CoordinatorOptions{
		WALPath:  *walPath,
		Store:    store,
		LeaseTTL: *leaseTTL,
		Metrics:  metrics,
	})
	if err != nil {
		return fatal(err)
	}
	defer coord.Close()
	if n := coord.Skipped(); n > 0 {
		fmt.Fprintf(stderr, "sweepd: wal: %d torn line(s) dropped at open\n", n)
	}
	if jobs := coord.Jobs(); len(jobs) > 0 {
		fmt.Fprintf(stderr, "sweepd: resumed %d job(s) from %s\n", len(jobs), *walPath)
	}

	srv, err := sweepsvc.NewServer(*addr, coord, metrics)
	if err != nil {
		return fatal(err)
	}
	fmt.Fprintf(stderr, "sweepd: serving on http://%s (wal %s, lease ttl %v)\n", srv.Addr(), *walPath, *leaseTTL)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	s := <-sig
	fmt.Fprintf(stderr, "sweepd: %v — shutting down (journal is durable; restart with the same -wal to resume)\n", s)
	if err := srv.Close(); err != nil {
		return fatal(err)
	}
	return 0
}
