package experiments

import (
	"os"
	"path/filepath"
	"sync/atomic"

	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/system"
)

// cachePtr holds the simulation-result cache every driver consults.
// It is an atomic pointer because drivers fan simulations out through
// parmap: workers read it concurrently, and one simcache.Cache is safe
// to share between them.
var cachePtr atomic.Pointer[simcache.Cache]

// SetCache installs the result cache used by all figure, ablation and
// extension drivers (nil disables caching).  The default is nil so
// that tests and the bench_test.go benchmarks measure real
// simulations; cmd/experiments installs a cache according to its
// flags.
func SetCache(c *simcache.Cache) {
	cachePtr.Store(c)
}

// Cache returns the installed cache, or nil when caching is disabled.
func Cache() *simcache.Cache { return cachePtr.Load() }

// shardsVal holds the per-point mesh tile count every synthetic driver
// passes to the simulator (≤1 = serial stepping).  Atomic for the same
// reason as cachePtr: parmap workers read it concurrently.
var shardsVal atomic.Int64

// SetShards installs the sharded-stepping tile count applied to every
// synthetic simulation point (see DESIGN.md §17).  Sharded stepping is
// bit-identical to serial and sim.Options.Shards is fingerprint-exempt,
// so results, cache keys and golden tables are unchanged; the knob only
// trades cores for wall-clock on big meshes.  cmd/experiments sets it
// from its -shards flag.
func SetShards(n int) {
	shardsVal.Store(int64(n))
}

// progressPtr holds the live-introspection point counter, shared the
// same way as the cache: parmap workers bump it concurrently.
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

// pointDone records one completed simulation point.
func pointDone() {
	if g := progressPtr.Load(); g != nil {
		g.Add(1)
	}
}

// addTotal declares n upcoming simulation points; every driver calls
// it at entry so /progress ETAs stay meaningful mid-run.
func addTotal(n int) {
	if g := progressPtr.Load(); g != nil {
		g.AddTotal(int64(n))
	}
}

// runSim is the cached sim.Run every synthetic driver goes through.
func runSim(o sim.Options) (sim.Result, error) {
	if n := shardsVal.Load(); n > 1 && o.Shards == 0 {
		o.Shards = int(n)
	}
	res, err := sim.RunCached(o, cachePtr.Load())
	pointDone()
	return res, err
}

// runSystem is the cached system.Run every full-system driver goes
// through.
func runSystem(o system.Options) (system.Result, error) {
	res, err := system.RunCached(o, cachePtr.Load())
	pointDone()
	return res, err
}
