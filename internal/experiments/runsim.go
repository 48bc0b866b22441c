package experiments

import (
	"os"
	"path/filepath"
	"sync/atomic"

	"surfbless/internal/parmap"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/system"
)

// cachePtr holds the simulation-result cache every driver consults.
// It is an atomic pointer because runPoints's workers read it
// concurrently, and one simcache.Cache is safe to share between them.
var cachePtr atomic.Pointer[simcache.Cache]

// SetCache installs the result cache used by all figure, ablation and
// extension drivers (nil disables caching).  The default is nil so
// that tests and the bench_test.go benchmarks measure real
// simulations; cmd/experiments installs a cache according to its
// flags.
func SetCache(c *simcache.Cache) {
	cachePtr.Store(c)
}

// progressPtr holds the live-introspection point counter, shared the
// same way as the cache: runPoints's workers bump it concurrently.
var progressPtr atomic.Pointer[probe.Progress]

// SetProgress installs a progress tracker that every figure, ablation
// and extension driver bumps once per simulation point (nil disables).
func SetProgress(g *probe.Progress) { progressPtr.Store(g) }

// flightDirPtr holds the directory failed runs dump their flight
// recordings into ("" disables forensic dumps).
var flightDirPtr atomic.Pointer[string]

// SetFlightDir installs the directory where drivers write flight
// recorder dumps when a run fails (WCTA conformance violations).
// Empty disables dumping; cmd/experiments points it at its -out
// directory.
func SetFlightDir(dir string) { flightDirPtr.Store(&dir) }

// flightDir returns the installed dump directory, or "".
func flightDir() string {
	if p := flightDirPtr.Load(); p != nil {
		return *p
	}
	return ""
}

// writeFlightDump persists a failed run's flight recording as
// <flightDir>/<base>.flight.json and returns the path.  A nil dump or
// an unset flight directory writes nothing and returns "".
func writeFlightDump(d *probe.FlightDump, base string) (string, error) {
	dir := flightDir()
	if d == nil || dir == "" {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, base+".flight.json")
	if err := probe.WriteFile(path, d.WriteJSON); err != nil {
		return "", err
	}
	return path, nil
}

// runPoints is how every driver runs its points: f over points on
// GOMAXPROCS workers, results in input order, and the errors of failed
// points joined in input order (parmap.Map).  Every point is an
// isolated deterministic run, so the order the workers finish in never
// shows in a result.  It declares the points to the installed progress
// tracker on entry and counts each one as it finishes, so /progress
// ETAs stay meaningful mid-run.
func runPoints[P, R any](points []P, f func(P) (R, error)) ([]R, error) {
	g := progressPtr.Load()
	if g != nil {
		g.AddTotal(int64(len(points)))
	}
	return parmap.Map(points, 0, func(p P) (R, error) {
		r, err := f(p)
		if g != nil {
			g.Add(1)
		}
		return r, err
	})
}

// runSim is the cached sim.Run of one synthetic point.
func runSim(o sim.Options) (sim.Result, error) {
	return sim.RunCached(o, cachePtr.Load())
}

// runSystem is the cached system.Run of one full-system point.
func runSystem(o system.Options) (system.Result, error) {
	return system.RunCached(o, cachePtr.Load())
}
