package system

import "surfbless/internal/simcache"

// FingerprintVersion tags the canonical Options serialization and the
// full-system simulator's behaviour (cores, MESI hierarchy, NoC).
// Bump on any semantic change so stale cache entries become
// unreachable.  It is distinct from sim.FingerprintVersion: the two
// run kinds can never alias.
const FingerprintVersion = "surfbless-system-v1"

// Fingerprint derives the content-addressed cache key of a full-system
// run from the canonical JSON serialization of its options (model,
// application profile, instruction quota, cycle bound, seed, memory
// latencies, energy coefficients, wave sets).
func Fingerprint(o Options) (simcache.Key, error) {
	return simcache.KeyOf(FingerprintVersion, o)
}

// RunCached is Run behind a content-addressed cache, with the
// degradation contract of simcache.Cached.
func RunCached(o Options, c *simcache.Cache) (Result, error) {
	return simcache.Cached(c, FingerprintVersion, o, func() (Result, error) { return Run(o) })
}
