package sim

import (
	"encoding/json"
	"fmt"

	"surfbless/internal/simcache"
)

// FingerprintVersion tags the canonical Options serialization AND the
// simulator's behaviour.  Bump it whenever either changes semantics —
// a new Options field, a router/traffic/energy change that alters
// results for unchanged options — so stale cache entries become
// unreachable instead of wrong.
// v2: fault plans, retransmission accounting, degradation watchdog.
// v3: RUNAHEAD's retransmission timeout grows with the mesh
// (max(32, W+H−1)), which changes its results on meshes with W+H ≥ 34.
const FingerprintVersion = "surfbless-sim-v3"

// Fingerprint derives the content-addressed cache key of a run: a
// SHA-256 of FingerprintVersion plus the canonical JSON serialization
// of the options.  encoding/json emits struct fields in declaration
// order, so equal options always serialize to equal bytes; everything
// a run depends on — config, pattern, sources, slot widths, phases,
// seed, audit cadence, energy coefficients — is an exported field of
// Options and therefore covered.
func Fingerprint(o Options) (simcache.Key, error) {
	payload, err := json.Marshal(o)
	if err != nil {
		return simcache.Key{}, fmt.Errorf("sim: fingerprint: %w", err)
	}
	return simcache.Fingerprint(FingerprintVersion, payload), nil
}

// RunCached is Run behind a content-addressed cache: a hit
// deserializes the stored Result, a miss runs the simulation and
// stores it.  A nil cache, an unserializable option set, or a cached
// value that no longer decodes all degrade to a plain Run — the cache
// can make a run faster, never wrong.  Observed runs (a Probe or
// Tracer attached) always simulate for real: a cache hit would return
// the right Result but leave the observer with nothing to observe.
func RunCached(o Options, c *simcache.Cache) (Result, error) {
	if c == nil || o.Observed() {
		return Run(o)
	}
	key, err := Fingerprint(o)
	if err != nil {
		return Run(o)
	}
	if raw, ok := c.Get(key); ok {
		var res Result
		if err := json.Unmarshal(raw, &res); err == nil {
			return res, nil
		}
		c.NoteCorrupt()
	}
	res, err := Run(o)
	if err != nil {
		return res, err
	}
	if raw, err := json.Marshal(res); err == nil {
		c.Put(key, raw)
	}
	return res, nil
}
