// Package sim is fingerprintcheck testdata: the payload root and
// every field-shape verdict the analyzer hands down.
package sim

import (
	"encoding/json"

	"nocvet.example/internal/config"
)

// Tracer is a named func type, hook-style.
type Tracer func(ev int)

// Options is the fingerprint payload root.
type Options struct {
	// Serialized fields in every deterministic shape.
	Cfg     config.Config
	Seed    int64
	Weights []float64
	Lookup  map[string]int
	Limits  [4]int
	Coeffs  *config.Coefficients
	Stamp   config.Stamp // MarshalText: opaque, trusted

	// Exempt fields, the Shards convention.
	Tracer Tracer `json:"-"`
	Shards int    `json:"-"`

	// Violations.
	hidden   int                  // want `field sim\.Options\.hidden is unexported, so encoding/json silently omits it`
	Sink     func(node int)       // want `field sim\.Options\.Sink is func-typed; json\.Marshal fails`
	Anything any                  // want `field sim\.Options\.Anything is interface-typed`
	Notify   chan int             // want `field sim\.Options\.Notify is channel-typed`
	Gain     complex128           // want `field sim\.Options\.Gain has complex type`
	BadMap   map[config.Coord]int // want `field sim\.Options\.BadMap is a map keyed by`
}

// Fingerprint mirrors the real cache-key derivation: json.Marshal of
// the options is the payload the analyzer must audit.
func Fingerprint(o Options) ([]byte, error) {
	return json.Marshal(o)
}

// helper proves only functions named Fingerprint seed the walk: this
// marshal of an un-audited type reports nothing.
func helper() ([]byte, error) {
	return json.Marshal(struct {
		leak func() // never reported: not a fingerprint payload
	}{})
}
