// Package conformance is the oracle that keeps the analytical timing
// engine honest: it derives the exact flow set a deterministic traffic
// pattern offers, computes the per-flow wcta bounds, runs the real
// simulator with a per-flow latency tracker attached, and checks that
// every delivered packet's network latency stayed at or under its
// flow's bound.  A single violation means either the analysis or the
// fabric is wrong — both are bugs worth stopping the build for.
package conformance

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
	"surfbless/internal/wcta"
)

// Flows derives the flow set that traffic.New(mesh, pattern, sources)
// offers — the analysis contract the simulated run must then live
// inside.  It refuses patterns with randomized destinations (uniform,
// hotspot): their packet population is not a finite flow set.  It also
// refuses unregulated sources (Burst 0): a plain Bernoulli process has
// no arrival curve, so no finite bound can cover it.
func Flows(mesh geom.Mesh, pattern traffic.Pattern, sources []traffic.Source) (wcta.FlowSet, error) {
	var fs wcta.FlowSet
	for d, s := range sources {
		if s.Rate == 0 {
			continue
		}
		if s.Burst < 1 {
			return fs, fmt.Errorf("conformance: domain %d is unregulated (Burst 0): a Bernoulli stream admits unbounded bursts, no bound can hold", d)
		}
		for n := 0; n < mesh.Nodes(); n++ {
			src := mesh.CoordOf(n)
			dst, ok := destination(mesh, pattern, src)
			if !ok {
				continue
			}
			fs.Flows = append(fs.Flows, wcta.Flow{
				Src: src, Dst: dst, Domain: d,
				Rate:  s.Rate,
				Burst: s.Burst,
				Size:  s.Class.Flits(),
			})
		}
	}
	return fs, nil
}

// destination mirrors traffic.Generator.destination for the
// deterministic patterns; ok is false when the node generates nothing.
func destination(mesh geom.Mesh, pattern traffic.Pattern, src geom.Coord) (geom.Coord, bool) {
	switch pattern {
	case traffic.Transpose:
		dst := geom.Coord{X: src.Y, Y: src.X}
		if dst == src || !mesh.Contains(dst) {
			return geom.Coord{}, false
		}
		return dst, true
	case traffic.BitComplement:
		dst := mesh.CoordOf(mesh.Nodes() - 1 - mesh.ID(src))
		if dst == src {
			return geom.Coord{}, false
		}
		return dst, true
	case traffic.Corner:
		if src != (geom.Coord{}) {
			return geom.Coord{}, false
		}
		return geom.Coord{X: mesh.Width - 1, Y: mesh.Height - 1}, true
	default:
		panic(fmt.Sprintf("conformance: pattern %v has randomized destinations; its packet population is not a flow set", pattern))
	}
}

// Deterministic reports whether the pattern's destinations are a pure
// function of the source node, i.e. whether Flows can describe it.
func Deterministic(p traffic.Pattern) bool {
	switch p {
	case traffic.Transpose, traffic.BitComplement, traffic.Corner:
		return true
	default:
		return false
	}
}

// Check is one conformance experiment: a fabric, a deterministic
// adversarial traffic pattern, and a simulation budget.
type Check struct {
	Cfg config.Config

	Pattern traffic.Pattern
	Sources []traffic.Source

	Measure int64 // cycles of generated traffic
	Drain   int64 // cycles to let the adversarial backlog deliver
	Seed    int64

	// Recorder, when non-nil, taps the run beside the flow tracker; if
	// the check then fails (Report.Err), the recorder's snapshot lands
	// in Report.Flight so the offending final cycles can be inspected
	// with `replay -flight`.
	Recorder *probe.FlightRecorder
}

// FlowReport pairs one flow's analytical bound with what the simulator
// actually delivered.
type FlowReport struct {
	Flow     wcta.Flow
	Bound    wcta.Bound
	Ejected  int64 // packets the flow delivered during the run
	Observed int64 // worst network latency among them (p100)
}

// Violated reports whether the observation refutes the bound.
func (f FlowReport) Violated() bool {
	return f.Bound.Bounded && f.Observed > f.Bound.Cycles
}

// Ratio returns Observed/Bound, the empirical tightness of the bound
// (0 when the flow delivered nothing or has no finite bound).
func (f FlowReport) Ratio() float64 {
	if !f.Bound.Bounded || f.Ejected == 0 || f.Bound.Cycles == 0 {
		return 0
	}
	return float64(f.Observed) / float64(f.Bound.Cycles)
}

// Report is the outcome of one Check.
type Report struct {
	Model config.Model
	Flows []FlowReport

	Ejected      int64 // packets delivered across all flows
	LeftInFlight int   // packets the drain budget failed to deliver

	// Flight is the forensic dump of the run's trailing cycles, present
	// only when Check.Recorder was set and the check failed (Err() !=
	// nil at Run time).
	Flight *probe.FlightDump
}

// Violations returns the indices of flows whose observation exceeded
// their bound.
func (r *Report) Violations() []int {
	var v []int
	for i, f := range r.Flows {
		if f.Violated() {
			v = append(v, i)
		}
	}
	return v
}

// MaxRatio returns the largest observed/bound ratio and the flow index
// achieving it (-1 when nothing was observed).
func (r *Report) MaxRatio() (int, float64) {
	idx, best := -1, 0.0
	for i, f := range r.Flows {
		if ratio := f.Ratio(); ratio > best {
			idx, best = i, ratio
		}
	}
	return idx, best
}

// Err folds the report into a single error: nil when every delivered
// packet respected its flow's bound and nothing was left undelivered.
func (r *Report) Err() error {
	if r.LeftInFlight > 0 {
		return fmt.Errorf("conformance: %v: %d packets still in flight after the drain budget — bounds unverifiable (raise Drain)", r.Model, r.LeftInFlight)
	}
	if v := r.Violations(); len(v) > 0 {
		f := r.Flows[v[0]]
		return fmt.Errorf("conformance: %v: %d flow(s) violated their bound; first: flow %v→%v dom %d observed %d > bound %d",
			r.Model, len(v), f.Flow.Src, f.Flow.Dst, f.Flow.Domain, f.Observed, f.Bound.Cycles)
	}
	return nil
}

// Run executes one conformance check: analyze, simulate, compare.
func Run(chk Check) (*Report, error) {
	fs, err := Flows(chk.Cfg.Mesh(), chk.Pattern, chk.Sources)
	if err != nil {
		return nil, err
	}
	an, err := wcta.Analyze(chk.Cfg, nil, fs)
	if err != nil {
		return nil, err
	}
	for i, b := range an.Bounds {
		if !b.Bounded {
			return nil, fmt.Errorf("conformance: %v: flow %d has no finite bound (%s); pick a lighter scenario", chk.Cfg.Model, i, b.Reason)
		}
	}

	tracker := &stats.FlowTracker{}
	taps := []probe.Tap{tracker}
	if chk.Recorder != nil {
		taps = append(taps, chk.Recorder)
	}
	res, err := sim.Run(sim.Options{
		Cfg:     chk.Cfg,
		Pattern: chk.Pattern,
		Sources: chk.Sources,
		// No warm-up: a latency bound has no warm-up exemption, and the
		// tracker observes every delivered packet regardless of window.
		Measure: chk.Measure,
		Drain:   chk.Drain,
		Seed:    chk.Seed,
		Taps:    taps,
	})
	if err != nil {
		return nil, err
	}

	rep := &Report{Model: chk.Cfg.Model, LeftInFlight: res.LeftInFlight}
	known := make(map[stats.FlowKey]bool, len(fs.Flows))
	for i, f := range fs.Flows {
		k := stats.FlowKey{Src: f.Src, Dst: f.Dst, Domain: f.Domain}
		known[k] = true
		obs := tracker.Flow(k)
		rep.Flows = append(rep.Flows, FlowReport{
			Flow:     f,
			Bound:    an.Bounds[i],
			Ejected:  obs.Ejected,
			Observed: obs.MaxNetworkLatency,
		})
		rep.Ejected += obs.Ejected
	}
	// A delivered flow outside the analyzed set means the flow-set
	// derivation disagrees with the generator — the oracle itself is
	// broken, which must fail louder than any bound comparison.
	for _, k := range tracker.Keys() {
		if !known[k] {
			return nil, fmt.Errorf("conformance: simulator delivered unanalyzed flow %v→%v dom %d: flow derivation out of sync with traffic generator",
				k.Src, k.Dst, k.Domain)
		}
	}
	if chk.Recorder != nil {
		if verr := rep.Err(); verr != nil {
			rep.Flight = chk.Recorder.Dump("wcta-conformance: "+verr.Error(),
				res.Cycles, chk.Cfg.Model.String(), chk.Cfg.Mesh(), chk.Cfg.Domains)
		}
	}
	return rep, nil
}
