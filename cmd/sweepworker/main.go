// Command sweepworker is one member of the sweep-service fleet: each
// of its slots asks a cmd/sweepd coordinator for one lease-based work
// unit, runs the point's simulation (with per-job timeouts and
// seeded-backoff retries), reports the typed ok/degraded/failed row
// back and asks again.  An ask that finds no work waits at the
// coordinator until work may have appeared.
//
// Usage:
//
//	sweepworker -coordinator 127.0.0.1:8080 [-name host-pid] [-slots N]
//	            [-cache-dir results/.simcache] [-no-cache]
//	            [-seed 0]
//
// Fault tolerance (DESIGN.md §16):
//
//   - Leases are renewed at a third of their TTL; if this process is
//     SIGKILL'd, the coordinator requeues its leases after the TTL and
//     nothing is lost.
//   - SIGTERM/SIGINT drains gracefully: the slots stop asking, finish
//     and report the points they hold, then the process exits 0.  A
//     slot never holds a lease it has not started, so there is nothing
//     to hand back.  A second signal exits hard.
//   - Coordinator outages (a bounce mid-sweep) look like slow RPCs:
//     acquisitions and completion reports retry with seeded
//     exponential backoff + jitter.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"surfbless/internal/simcache"
	"surfbless/internal/sweepsvc"
	"surfbless/internal/sweepsvc/backoff"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stderr))
}

func run(args []string, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweepworker", flag.ContinueOnError)
	fs.SetOutput(stderr)
	coordAddr := fs.String("coordinator", "127.0.0.1:8080", "sweepd address (host:port)")
	name := fs.String("name", "", "worker name reported to the coordinator (default host-pid)")
	slots := fs.Int("slots", runtime.NumCPU(), "points simulated concurrently")
	cacheDir := fs.String("cache-dir", filepath.Join("results", ".simcache"), "shared result-store directory")
	noCache := fs.Bool("no-cache", false, "run without the shared result store")
	seed := fs.Int64("seed", 0, "backoff jitter seed (default derived from pid)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "sweepworker:", err)
		return 1
	}

	if *name == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "worker"
		}
		*name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	if *seed == 0 {
		// De-synchronize fleet retries without breaking determinism of
		// the simulations themselves (point seeds come from the spec).
		*seed = int64(os.Getpid())
	}

	var cache *simcache.Cache
	if !*noCache {
		var err error
		if cache, err = simcache.New(simcache.Options{Dir: *cacheDir}); err != nil {
			return fatal(err)
		}
	}

	policy := backoff.Policy{Seed: *seed}
	w, err := sweepsvc.NewWorker(sweepsvc.WorkerOptions{
		Name:   *name,
		Client: sweepsvc.NewClient(*coordAddr),
		Runner: &sweepsvc.Runner{
			Cache:  cache,
			Policy: policy,
			OnRetry: func(rate float64, attempt int, err error) {
				fmt.Fprintf(stderr, "sweepworker: rate %.3f attempt %d failed (%v), backing off\n", rate, attempt, err)
			},
		},
		Slots:   *slots,
		Backoff: policy,
		Hooks: &sweepsvc.WorkerHooks{
			PointFinished: func(l sweepsvc.Lease, exec sweepsvc.Execution) {
				fmt.Fprintf(stderr, "sweepworker: %s point %d (rate %.3f): %s\n", l.Job, l.Point, l.Rate, exec.Status)
			},
			Drained: func() {
				fmt.Fprintln(stderr, "sweepworker: drained")
			},
		},
	})
	if err != nil {
		return fatal(err)
	}

	ctx, hardStop := context.WithCancel(context.Background())
	defer hardStop()
	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fmt.Fprintf(stderr, "sweepworker: %v — draining (finish in-flight points); signal again to exit hard\n", s)
		w.Drain()
		<-sig
		fmt.Fprintln(stderr, "sweepworker: second signal — exiting hard")
		hardStop()
	}()

	fmt.Fprintf(stderr, "sweepworker: %s pulling from %s (%d slot(s))\n", *name, *coordAddr, *slots)
	start := time.Now()
	if err := w.Run(ctx); err != nil && ctx.Err() == nil {
		return fatal(err)
	}
	fmt.Fprintf(stderr, "sweepworker: done after %v\n", time.Since(start).Round(time.Millisecond))
	return 0
}
