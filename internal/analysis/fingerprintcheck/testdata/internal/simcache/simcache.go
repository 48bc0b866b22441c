// Package simcache is fingerprintcheck testdata: the cache's shared key
// derivation.  Its own marshal sees only `any`; the payload root is the
// options argument at each call from a Fingerprint function.
package simcache

import "encoding/json"

// KeyOf mirrors the real derivation: it marshals opts.
func KeyOf(version string, opts any) ([]byte, error) {
	payload, err := json.Marshal(opts)
	return append([]byte(version), payload...), err
}
