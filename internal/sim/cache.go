package sim

import "surfbless/internal/simcache"

// FingerprintVersion tags the canonical Options serialization AND the
// simulator's behaviour.  Bump it whenever either changes semantics —
// a new Options field, a router/traffic/energy change that alters
// results for unchanged options — so stale cache entries become
// unreachable instead of wrong.
// v2: fault plans, retransmission accounting, degradation watchdog.
// v3: RUNAHEAD's retransmission timeout grows with the mesh
// (max(32, W+H−1)), which changes its results on meshes with W+H ≥ 34.
const FingerprintVersion = "surfbless-sim-v3"

// Fingerprint derives the content-addressed cache key of a run:
// simcache.KeyOf over FingerprintVersion and the options.  Everything
// a run depends on — config, pattern, sources, slot widths, phases,
// seed, audit cadence, energy coefficients — is an exported field of
// Options and therefore covered; observers and execution knobs are
// tagged `json:"-"`.
func Fingerprint(o Options) (simcache.Key, error) {
	return simcache.KeyOf(FingerprintVersion, o)
}

// RunCached is Run behind a content-addressed cache (simcache.Cached).
// Observed runs (any tap attached) always simulate for real: a cache
// hit would return the right Result but leave the taps with nothing to
// observe.
func RunCached(o Options, c *simcache.Cache) (Result, error) {
	if o.Observed() {
		return Run(o)
	}
	return simcache.Cached(c, FingerprintVersion, o, func() (Result, error) { return Run(o) })
}
