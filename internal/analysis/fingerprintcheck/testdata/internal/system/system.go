// Package system is fingerprintcheck testdata: a payload root reached
// through simcache.KeyOf instead of a direct json.Marshal.
package system

import "nocvet.example/internal/simcache"

// Options is audited because Fingerprint hands it to simcache.KeyOf.
type Options struct {
	Seed   int64
	Shards int    `json:"-"`
	Hook   func() // want `field system\.Options\.Hook is func-typed; json\.Marshal fails`
}

// Fingerprint derives the key through the shared helper.
func Fingerprint(o Options) ([]byte, error) {
	return simcache.KeyOf("system-v1", o)
}
