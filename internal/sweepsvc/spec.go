// Package sweepsvc is the fault-tolerant sweep service: a lease-based
// HTTP coordinator (cmd/sweepd) that shards sweep jobs into points, a
// worker fleet (cmd/sweepworker) that pulls leases and simulates them,
// and the spec/row layer and point executor (Runner) that local
// `cmd/sweep` shares, which keep the service's CSV output
// byte-identical to a serial `cmd/sweep` run.
//
// The design goal is crash-safety under partial failure (DESIGN.md
// §16): every state transition is journaled to an fsync'd, torn-tail-
// tolerant WAL so a bounced coordinator resumes exactly; work units
// are leases with TTL + heartbeat renewal so a SIGKILL'd worker loses
// nothing; identical in-flight point fingerprints are deduplicated via
// singleflight over the shared simcache-backed result store; and
// workers drain gracefully on SIGTERM — finish in-flight leases,
// release the rest.
package sweepsvc

import (
	"fmt"
	"math"
	"strings"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/packet"
	"surfbless/internal/sim"
	"surfbless/internal/simcache"
	"surfbless/internal/traffic"
)

// DefaultMaxAttempts bounds executions of one failing point (first try
// plus retries under the backoff policy) when Spec.MaxAttempts is 0.
// Two preserves the retry-once budget sweeps always had.
const DefaultMaxAttempts = 2

// maxPoints caps the rate points one spec may expand into.  Validate
// rejects a longer range — including one whose step is too small to
// advance the rate, which would never end.
const maxPoints = 10000

// Spec is one sweep job: an injection-rate range over one model,
// expanded into one point per rate.  Field-for-field it mirrors
// cmd/sweep's flags so a job submitted with `sweep -remote` simulates
// exactly what the local flags would have, down to the result-cache
// fingerprints.
type Spec struct {
	Model   string  `json:"model"`   // WH, BLESS, Surf, SB, CHIPPER or RUNAHEAD
	Domains int     `json:"domains"` // number of interference domains
	From    float64 `json:"from"`    // first total injection rate
	To      float64 `json:"to"`      // last total injection rate
	Step    float64 `json:"step"`    // rate increment
	Cycles  int64   `json:"cycles"`  // measured cycles per point
	Seed    int64   `json:"seed"`

	// Width and Height override the Table-1 8×8 mesh when both are
	// positive; 0 keeps config.Default's dimensions.
	Width  int `json:"width,omitempty"`
	Height int `json:"height,omitempty"`

	// Faults optionally arms a deterministic fault plan on every point
	// (see internal/fault); it is validated against the mesh at submit
	// time.
	Faults *fault.Plan `json:"faults,omitempty"`

	// PointTimeoutMS bounds one point's wall-clock simulation time; an
	// expired timeout surfaces as a "failed: timeout" row after the
	// attempt budget.  0 = no timeout.
	PointTimeoutMS int64 `json:"point_timeout_ms,omitempty"`

	// MaxAttempts bounds executions of one failing point (0 =
	// DefaultMaxAttempts).  Degraded points are data, not failures, and
	// never consume retries.
	MaxAttempts int `json:"max_attempts,omitempty"`
}

// Validate reports the first problem with the spec, or nil.
func (s Spec) Validate() error {
	m, err := config.ParseModel(s.Model)
	if err != nil {
		return err
	}
	if s.Domains < 1 {
		return fmt.Errorf("sweepsvc: %d domains, need ≥ 1", s.Domains)
	}
	if !finite(s.From) || !finite(s.To) || !finite(s.Step) || s.Step <= 0 || s.From <= 0 || s.To < s.From {
		return fmt.Errorf("sweepsvc: invalid rate range [%g, %g] step %g", s.From, s.To, s.Step)
	}
	if s.To > float64(s.Domains) {
		return fmt.Errorf("sweepsvc: rate %g over %d domains exceeds 1 packet/node/cycle per domain", s.To, s.Domains)
	}
	// Walk the range as Rates does, bounded: float accumulation may
	// overshoot To by up to Rates' epsilon, and a point above rate 1
	// per domain would fail in every attempt.
	n := 0
	for rate := s.From; rate <= s.To+1e-9; rate += s.Step {
		if n++; n > maxPoints {
			return fmt.Errorf("sweepsvc: rate range [%g, %g] step %g has more than %d points", s.From, s.To, s.Step, maxPoints)
		}
		if rate/float64(s.Domains) > 1 {
			return fmt.Errorf("sweepsvc: rate %g over %d domains exceeds 1 packet/node/cycle per domain", rate, s.Domains)
		}
	}
	if s.Cycles <= 0 {
		return fmt.Errorf("sweepsvc: %d cycles, need ≥ 1", s.Cycles)
	}
	if (s.Width > 0) != (s.Height > 0) {
		return fmt.Errorf("sweepsvc: width and height must be overridden together")
	}
	if s.MaxAttempts < 0 {
		return fmt.Errorf("sweepsvc: negative max_attempts")
	}
	if s.PointTimeoutMS < 0 {
		return fmt.Errorf("sweepsvc: negative point_timeout_ms")
	}
	cfg := s.baseConfig(m)
	if !s.Faults.Empty() {
		if err := s.Faults.Validate(cfg.Width, cfg.Height); err != nil {
			return fmt.Errorf("sweepsvc: fault plan: %w", err)
		}
	}
	return cfg.Validate()
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// baseConfig builds the per-point configuration before traffic wiring.
func (s Spec) baseConfig(m config.Model) config.Config {
	cfg := config.Default(m)
	cfg.Domains = s.Domains
	if s.Width > 0 && s.Height > 0 {
		cfg.Width, cfg.Height = s.Width, s.Height
	}
	cfg.Faults = s.Faults
	return cfg
}

// Rates expands the sweep range in emission order.  The epsilon keeps
// the last rate inside the range despite float accumulation — the same
// loop cmd/sweep has always used, so point counts agree everywhere.
func (s Spec) Rates() []float64 {
	var rates []float64
	for rate := s.From; rate <= s.To+1e-9; rate += s.Step {
		rates = append(rates, rate)
	}
	return rates
}

// Attempts resolves the per-point execution budget.
func (s Spec) Attempts() int {
	if s.MaxAttempts > 0 {
		return s.MaxAttempts
	}
	return DefaultMaxAttempts
}

// Options builds the simulation options for one rate.  This is THE
// canonical expansion: cmd/sweep, the serial reference runner and the
// service workers all call it, which is what makes their fingerprints
// — and therefore their cache entries and CSV rows — interchangeable.
func (s Spec) Options(rate float64) (sim.Options, error) {
	m, err := config.ParseModel(s.Model)
	if err != nil {
		return sim.Options{}, err
	}
	cfg := s.baseConfig(m)
	sources := make([]traffic.Source, s.Domains)
	for i := range sources {
		sources[i] = traffic.Source{Rate: rate / float64(s.Domains), Class: packet.Ctrl, VNet: -1}
	}
	return sim.Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: sources,
		Warmup:  s.Cycles / 10, Measure: s.Cycles, Drain: 10 * s.Cycles,
		Seed: s.Seed,
	}, nil
}

// Fingerprint derives the content-addressed cache key of one point.
func (s Spec) Fingerprint(rate float64) (simcache.Key, error) {
	o, err := s.Options(rate)
	if err != nil {
		return simcache.Key{}, err
	}
	return sim.Fingerprint(o)
}

// CSVHeader is the sweep output header, shared verbatim by cmd/sweep
// and the coordinator's job CSV.
const CSVHeader = "rate,avg_latency,queue_latency,network_latency,throughput,deflections_per_pkt,refused,dropped,retransmits,status"

// RenderRow renders one completed point's CSV row from its result —
// the single formatting site behind the byte-identical guarantee.
func RenderRow(rate float64, domains int, res sim.Result, status string) string {
	tot := res.Total
	thr := 0.0
	for d := 0; d < domains && d < len(res.Domains); d++ {
		thr += res.Throughput(d)
	}
	return fmt.Sprintf("%.3f,%.3f,%.3f,%.3f,%.4f,%.3f,%d,%d,%d,%s",
		rate, tot.AvgTotalLatency(), tot.AvgQueueLatency(), tot.AvgNetworkLatency(),
		thr, tot.AvgDeflections(), tot.Refused, tot.Dropped, tot.Retransmits, status)
}

// ErrorRow renders the row of a point that failed every attempt: the
// rate and status cells are populated, the statistics stay empty.
func ErrorRow(rate float64, status string) string {
	return fmt.Sprintf("%.3f,,,,,,,,,%s", rate, status)
}

// StatusWithAttempts appends the attempt count to a status cell when a
// point needed retries, so flaky executions are visible in the CSV.  A
// first-attempt success keeps the bare status — and therefore byte
// parity with every sweep CSV ever produced.
func StatusWithAttempts(status string, attempts int) string {
	if attempts <= 1 {
		return status
	}
	return fmt.Sprintf("%s; attempts=%d", status, attempts)
}

// CSVSafe strips the characters that would break a one-line CSV status
// cell.
func CSVSafe(s string) string {
	s = strings.ReplaceAll(s, ",", ";")
	return strings.ReplaceAll(s, "\n", " ")
}
