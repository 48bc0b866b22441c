// Package backoff is the seeded exponential-backoff-with-jitter policy
// shared by every retry loop in the sweep service: worker lease asks,
// completion reports racing a coordinator bounce, and cmd/sweep's
// per-point retries.  Delays are a pure function of (policy, attempt),
// so a seeded run retries on a reproducible schedule — the same
// property the simulator's fault plans have — while distinct seeds
// de-synchronize a worker fleet hammering a recovering coordinator.
package backoff

import (
	"context"
	"errors"
	"time"
)

// Defaults applied by Policy.Delay when the corresponding field is
// zero.
const (
	DefaultBase   = 50 * time.Millisecond
	DefaultMax    = 5 * time.Second
	DefaultFactor = 2.0
	DefaultJitter = 0.5
)

// Policy describes one exponential backoff schedule.  The zero value
// is usable and applies the defaults.
type Policy struct {
	// Base is the pre-jitter delay before the first retry.
	Base time.Duration
	// Max caps the pre-jitter delay growth.
	Max time.Duration
	// Factor multiplies the delay per attempt (≤ 1 defaults to 2).
	Factor float64
	// Jitter is the fraction of each delay that is randomized: the
	// delay spans [d·(1−Jitter), d).  0 applies DefaultJitter; a
	// negative value disables jitter entirely.
	Jitter float64
	// Seed selects the deterministic jitter stream.  Two policies with
	// equal fields and seeds produce identical delay sequences.
	Seed int64
}

// Delay returns the post-jitter delay to sleep before retry `attempt`
// (0-based: Delay(0) follows the first failure).
func (p Policy) Delay(attempt int) time.Duration {
	base, maxd, factor, jitter := p.Base, p.Max, p.Factor, p.Jitter
	if base <= 0 {
		base = DefaultBase
	}
	if maxd <= 0 {
		maxd = DefaultMax
	}
	if factor <= 1 {
		factor = DefaultFactor
	}
	switch {
	case jitter == 0:
		jitter = DefaultJitter
	case jitter < 0:
		jitter = 0
	case jitter > 1:
		jitter = 1
	}
	d := float64(base)
	for i := 0; i < attempt && d < float64(maxd); i++ {
		d *= factor
	}
	if d > float64(maxd) {
		d = float64(maxd)
	}
	if jitter > 0 {
		// u ∈ [0,1) from a splitmix64 draw of (seed, attempt): the
		// jitter is reproducible per attempt and independent across
		// seeds.
		u := float64(hash64(uint64(p.Seed), uint64(attempt))>>11) / (1 << 53)
		d = d*(1-jitter) + d*jitter*u
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Sleep blocks for Delay(attempt) or until ctx is done, returning
// ctx.Err() in the latter case.
func (p Policy) Sleep(ctx context.Context, attempt int) error {
	t := time.NewTimer(p.Delay(attempt))
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// stopError marks an error as non-retryable for Retry.
type stopError struct{ err error }

func (e *stopError) Error() string { return e.err.Error() }
func (e *stopError) Unwrap() error { return e.err }

// Stop wraps err so Retry returns it immediately instead of burning
// the remaining attempts — the caller has classified the failure as
// permanent (a wedged point, an invalid spec).
func Stop(err error) error {
	if err == nil {
		return nil
	}
	return &stopError{err: err}
}

// Retry runs f up to attempts times, sleeping Delay(i) between tries,
// and returns the number of attempts used along with f's final error
// (nil on success).  An error wrapped with Stop aborts the loop and is
// returned unwrapped; a cancelled ctx aborts with ctx's error.
func Retry(ctx context.Context, p Policy, attempts int, f func(attempt int) error) (int, error) {
	if attempts < 1 {
		attempts = 1
	}
	var err error
	for attempt := 0; attempt < attempts; attempt++ {
		if err = f(attempt); err == nil {
			return attempt + 1, nil
		}
		var stop *stopError
		if errors.As(err, &stop) {
			return attempt + 1, stop.err
		}
		if attempt == attempts-1 {
			break
		}
		if serr := p.Sleep(ctx, attempt); serr != nil {
			return attempt + 1, errors.Join(err, serr)
		}
	}
	return attempts, err
}

// hash64 is the splitmix64 finalizer (duplicated from internal/fault
// to keep this leaf package dependency-free).
func hash64(a, b uint64) uint64 {
	z := a*0x9E3779B97F4A7C15 + b + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
