package wcta

import (
	"fmt"

	"surfbless/internal/config"
)

// Term is one named component of a bound's cycle budget.
type Term struct {
	Name   string
	Cycles int64
}

// Bound is the analytical worst-case network latency of one flow.
type Bound struct {
	// Bounded is false when no finite bound exists; Reason says why.
	Bounded bool
	// Cycles is the worst-case injection→ejection latency, valid only
	// when Bounded.
	Cycles int64
	Reason string `json:",omitempty"`
	// Tight marks bounds that are exact for a packet that meets zero
	// contention (the conformance tightness scenarios rely on it).
	Tight bool
	// Terms breaks Cycles down by cause, worst first.
	Terms []Term `json:",omitempty"`
}

// String renders the bound for diagnostics.
func (b Bound) String() string {
	if !b.Bounded {
		return "unbounded: " + b.Reason
	}
	s := fmt.Sprintf("%d cycles", b.Cycles)
	if b.Tight {
		s += " (tight)"
	}
	return s
}

// Analysis pairs every flow of a set with its bound, in flow order.
type Analysis struct {
	Model  config.Model
	Flows  []Flow
	Bounds []Bound
}

// Bound returns the bound of flow i.
func (a *Analysis) Bound(i int) Bound { return a.Bounds[i] }

// Analyze derives per-flow worst-case traversal-time bounds for the
// fabric selected by cfg.Model under the traffic contract fs.
// slotWidths is the per-domain SB wave-window width (nil = 1 for every
// domain); the SB backend builds the fabric's own wave.Plan from it, so
// a slot plan surfbless.New refuses is refused here too.  The other
// models ignore it.
//
// Backends (derivations in DESIGN.md §14):
//
//   - WH:   buffer-aware busy-period iteration over the contention
//     tree of XY routes.
//   - Surf: the same iteration restricted to same-domain flows, plus
//     the wave-gating TDM terms — other domains cannot appear in a
//     bound at all, which is confinement at the analysis level.
//   - SB:   wave-schedule periodicity — an adversarial walk over the
//     (router, cycle mod Smax) state graph bounds the lone-packet
//     traversal, and old-first arbitration turns that into a
//     contention bound via the oldest-packet epoch argument.
//   - BLESS, CHIPPER, RUNAHEAD: explicitly Unbounded with the reason;
//     these fabrics make no per-flow service guarantee.
func Analyze(cfg config.Config, slotWidths []int, fs FlowSet) (*Analysis, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := fs.Validate(cfg); err != nil {
		return nil, err
	}
	a := &Analysis{Model: cfg.Model, Flows: fs.Flows}
	var err error
	switch cfg.Model {
	case config.WH:
		a.Bounds = vcBounds(cfg, fs, false)
	case config.Surf:
		a.Bounds, err = vcBoundsGated(cfg, fs)
	case config.SB:
		a.Bounds, err = sbBounds(cfg, slotWidths, fs)
	case config.BLESS:
		a.Bounds = unboundedAll(fs, "BLESS old-first deflection guarantees global progress, not per-flow service: an adversarial arrival pattern can deflect one packet arbitrarily often")
	case config.CHIPPER:
		a.Bounds = unboundedAll(fs, "CHIPPER's golden-packet arbitration delivers one packet per golden epoch; a flow's wait grows with the unbounded population of older packets")
	case config.RUNAHEAD:
		a.Bounds = unboundedAll(fs, "RUNAHEAD drops on contention and retransmits from the source; adversarial traffic forces unboundedly many retries")
	default:
		return nil, fmt.Errorf("wcta: unknown model %v", cfg.Model)
	}
	if err != nil {
		return nil, err
	}
	return a, nil
}

func unboundedAll(fs FlowSet, reason string) []Bound {
	bs := make([]Bound, len(fs.Flows))
	for i := range bs {
		bs[i] = Bound{Bounded: false, Reason: reason}
	}
	return bs
}

// boundCap is the ceiling above which a fixed-point iteration is
// declared divergent: no real-time argument survives a bound of a
// trillion cycles, and the cap keeps the iterations overflow-free.
const boundCap = int64(1) << 40
