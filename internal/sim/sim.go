// Package sim is the synthetic-workload simulator façade: it builds the
// fabric selected by the configuration (any of the six models), drives
// it with a traffic generator through warm-up / measurement / drain
// phases, and returns the per-domain statistics and the energy report —
// everything the §5.1 experiments need.
package sim

import (
	"context"
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/power"
	"surfbless/internal/probe"
	"surfbless/internal/router/bless"
	"surfbless/internal/router/chipper"
	"surfbless/internal/router/runahead"
	"surfbless/internal/router/surf"
	"surfbless/internal/router/surfbless"
	"surfbless/internal/router/wormhole"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// Options configures one synthetic run.
type Options struct {
	Cfg     config.Config
	Pattern traffic.Pattern
	// Sources gives each domain's injection process; its length must
	// equal Cfg.Domains.
	Sources []traffic.Source
	// SlotWidths is the per-domain wave-window length for SB (nil = 1).
	SlotWidths []int

	Warmup  int64 // cycles of unmeasured traffic before the window
	Measure int64 // cycles of measured traffic
	Drain   int64 // max cycles to let in-flight packets finish

	Seed int64

	// AuditEvery runs the fabric's conservation audit every N cycles
	// (0 disables).  Tests use it; experiment harnesses leave it off.
	AuditEvery int64

	// WatchdogNoProgress and WatchdogMaxAge configure the graceful-
	// degradation watchdog (see watchdog.go): the run is cut short with
	// a DegradedError when no packet resolves for WatchdogNoProgress
	// cycles while traffic is in flight, or when some packet stays
	// unresolved for WatchdogMaxAge cycles.  0 = auto: the defaults
	// when a fault plan is armed, disabled otherwise (fault-free
	// fabrics are livelock-free by construction).  Negative = always
	// disabled.  Deliberately fingerprinted — a tripping watchdog
	// changes the run's outcome.
	WatchdogNoProgress int64 `json:",omitempty"`
	WatchdogMaxAge     int64 `json:",omitempty"`

	// Coefficients overrides the energy model (nil = Default45nm).
	Coefficients *power.Coefficients

	// Taps observe the run.  When there are any, Run arms an event ring
	// (probe.Probe) with the run's shape — mesh, domain count and
	// measurement window [Warmup, Warmup+Measure) — arms every tap with
	// it, and hands each drained batch to the taps in order: the
	// lifecycle trace (trace.Writer), time series and heatmaps
	// (probe.Series), per-flow latency maxima (stats.FlowTracker), span
	// exporters (trace.Perfetto), the flight recorder
	// (probe.FlightRecorder), custom aggregators.  Taps see every event,
	// warm-up and drain included, with each packet's hop and deflection
	// counts as of the event; events are plain values, so recycling
	// never disturbs them.  Run flushes the ring whatever the outcome,
	// so a caller that taps a flight recorder can dump it with a
	// DegradedError's Reason and Cycle.  Observation never changes
	// results, so the field is excluded from the cache fingerprint;
	// RunCached still bypasses the cache for observed runs because a
	// cache hit would leave the taps empty.
	Taps []probe.Tap `json:"-"`

	// Ctx, when non-nil, lets the caller cancel a run mid-flight: the
	// cycle loop polls it on the watchdog's cadence (every 1024th
	// cycle) and returns a CanceledError wrapping ctx.Err() — the sweep
	// service's per-point timeouts and worker drains ride on it.  A
	// cancelled run carries partial statistics on the error (and returns
	// them as the Result) with MeasuredCycles clamped to the window the
	// run actually covered — zero when cancellation lands inside warm-up
	// — so harnesses that record the point anyway never divide by the
	// full measure window.  Cancellation is an execution-control
	// concern, not a simulation parameter, so the field is
	// fingerprint-exempt like Taps.
	Ctx context.Context `json:"-"`

	// Recycle is read nowhere: Run always recycles delivered packets
	// through a free list, on every model (DESIGN.md §12).
	//
	// Deprecated: the field remains only because the repo benchmark's
	// op filter (perfbench/simops.go) names it; it goes with that filter.
	Recycle bool `json:"-"`

	// Shards > 1 partitions the mesh into that many contiguous node
	// tiles stepped in parallel by a persistent worker pool, on every
	// model (the tile count is clamped to the node count).  The
	// two-phase barrier schedule is bit-identical to serial stepping —
	// see DESIGN.md §17 — so the option is fingerprint-exempt, the
	// convention for execution knobs that cannot change a result.
	// Ignored while fault injection is armed (recovery paths force
	// serial stepping).
	Shards int `json:"-"`
}

// Observed reports whether the run carries taps, which require a real
// simulation: cached results cannot replay the events they consume.
func (o Options) Observed() bool {
	return len(o.Taps) > 0
}

// Result is one run's outcome.
type Result struct {
	Domains []stats.Domain
	Total   stats.Domain
	Energy  power.Energy

	// LatencyP50 and LatencyP99 are per-domain total-latency percentile
	// bounds (power-of-two-bucket histograms; see stats.Histogram).
	LatencyP50 []int64
	LatencyP99 []int64

	Cycles         int64 // cycles actually simulated (incl. drain)
	MeasuredCycles int64
	Nodes          int
	LeftInFlight   int // packets still in flight after the drain budget
}

// Throughput returns domain d's accepted rate in packets/node/cycle
// over the measurement window.
func (r Result) Throughput(d int) float64 {
	if r.MeasuredCycles == 0 {
		return 0
	}
	return float64(r.Domains[d].Ejected) / float64(r.Nodes) / float64(r.MeasuredCycles)
}

// Fabric is one model's mesh as BuildFabric returns it: every model
// takes a hot-path probe, a fault injector and sharded stepping.
type Fabric interface {
	network.Fabric
	SetProbe(*probe.Probe)
	SetFaults(*fault.Injector)
	SetShards(n int) error
	StopShards()
}

// BuildFabric constructs the fabric for cfg.Model.  slotWidths applies
// to SB only.
func BuildFabric(cfg config.Config, slotWidths []int, sink network.Sink,
	col *stats.Collector, meter *power.Meter) (Fabric, error) {
	switch cfg.Model {
	case config.WH:
		return wormhole.New(wormhole.Options{
			Cfg: cfg,
			VCs: wormhole.SharedVCs(cfg),
			Key: wormhole.KeyNone,
		}, sink, col, meter)
	case config.BLESS:
		return bless.New(cfg, sink, col, meter)
	case config.Surf:
		return surf.New(cfg, sink, col, meter)
	case config.SB:
		return surfbless.New(cfg, slotWidths, sink, col, meter)
	case config.CHIPPER:
		return chipper.New(cfg, sink, col, meter)
	case config.RUNAHEAD:
		return runahead.New(cfg, sink, col, meter)
	default:
		return nil, fmt.Errorf("sim: unknown model %v", cfg.Model)
	}
}

// Run executes one synthetic simulation.
func Run(o Options) (Result, error) {
	if err := o.Cfg.Validate(); err != nil {
		return Result{}, err
	}
	if len(o.Sources) != o.Cfg.Domains {
		return Result{}, fmt.Errorf("sim: %d sources for %d domains", len(o.Sources), o.Cfg.Domains)
	}
	if o.Measure <= 0 {
		return Result{}, fmt.Errorf("sim: Measure must be positive")
	}
	if o.Warmup < 0 || o.Drain < 0 {
		return Result{}, fmt.Errorf("sim: negative phase length")
	}

	co := power.Default45nm()
	if o.Coefficients != nil {
		co = *o.Coefficients
	}
	col := stats.NewCollector(o.Cfg.Domains, o.Warmup, o.Warmup+o.Measure)
	var ring *probe.Probe
	if o.Observed() {
		ring = &probe.Probe{}
		ring.Arm(probe.Config{
			Mesh:       o.Cfg.Mesh(),
			Domains:    o.Cfg.Domains,
			WarmupEnd:  o.Warmup,
			MeasureEnd: o.Warmup + o.Measure,
		}, o.Taps...)
	}
	meter := power.NewMeter(o.Cfg, co)
	// Delivered packets return to the generator for reuse, so
	// steady-state stepping allocates nothing (DESIGN.md §12).
	fl := &packet.FreeList{}
	sink := func(_ int, p *packet.Packet, _ int64) { fl.Put(p) }
	fab, err := BuildFabric(o.Cfg, o.SlotWidths, sink, col, meter)
	if err != nil {
		return Result{}, err
	}
	if ring != nil {
		fab.SetProbe(ring)
	}
	fab.SetFaults(fault.NewInjector(o.Cfg.Faults, o.Cfg.Width, o.Cfg.Height))
	if o.Shards > 1 {
		if err := fab.SetShards(o.Shards); err != nil {
			return Result{}, err
		}
		defer fab.StopShards()
	}
	gen := traffic.New(o.Cfg.Mesh(), o.Pattern, o.Sources, o.Seed)
	gen.SetFreeList(fl)

	now := int64(0)
	loopErr := runLoop(o, fab, gen, col, ring, &now)
	// Push the ring's trailing events through to the taps so a flight
	// snapshot (and any span exporter) sees right up to the last cycle.
	ring.Flush()

	snapshot := func() Result {
		res := Result{
			Domains:    make([]stats.Domain, o.Cfg.Domains),
			LatencyP50: make([]int64, o.Cfg.Domains),
			LatencyP99: make([]int64, o.Cfg.Domains),
			Total:      col.Total(),
			Energy:     meter.Report(now),
			Cycles:     now,
			// A degraded run can end mid-measurement (or even mid-warmup),
			// so the measured-cycle count is clamped to the window the run
			// actually covered; Throughput would otherwise divide by the
			// full o.Measure and under-report accepted rate.
			MeasuredCycles: max(0, min(now, o.Warmup+o.Measure)-o.Warmup),
			Nodes:          o.Cfg.Nodes(),
			LeftInFlight:   fab.InFlight(),
		}
		for d := 0; d < o.Cfg.Domains; d++ {
			res.Domains[d] = col.Domain(d)
			res.LatencyP50[d] = col.Latency(d).Percentile(0.5)
			res.LatencyP99[d] = col.Latency(d).Percentile(0.99)
		}
		return res
	}

	if loopErr != nil {
		// Degradation paths carry partial statistics so sweep harnesses
		// can record the point and continue; everything else (audit
		// failures, collector misuse) stays a plain error.
		switch e := loopErr.(type) {
		case *DegradedError:
			e.Partial = snapshot()
			return e.Partial, e
		case *InvariantViolation:
			de := &DegradedError{Reason: "invariant: recovered fabric panic", Kind: KindInvariant, Cycle: e.Cycle, Cause: e}
			de.Partial = snapshot()
			return de.Partial, de
		case *CanceledError:
			// A canceled run reports the window it actually covered, just
			// like a degraded one: snapshot() clamps MeasuredCycles (zero
			// when the cancellation landed inside warm-up), so a harness
			// recording the point anyway sees honest rates, not statistics
			// scaled to a window that never ran.
			e.Partial = snapshot()
			return e.Partial, e
		default:
			return Result{}, loopErr
		}
	}
	if o.AuditEvery > 0 {
		if err := fab.Audit(); err != nil {
			return Result{}, err
		}
		if err := col.CheckConservation(fab.InFlight()); err != nil {
			return Result{}, err
		}
	}
	if err := col.Err(); err != nil {
		return Result{}, err
	}
	return snapshot(), nil
}

// runLoop drives the warm-up/measure/drain cycle loop.  It is split
// from Run so that one recover boundary wraps exactly the stepping
// code: a fabric invariant panic becomes a typed *InvariantViolation
// carrying the cycle it happened in, which Run converts into a
// DegradedError with partial statistics.
func runLoop(o Options, fab network.Fabric, gen *traffic.Generator,
	col *stats.Collector, ring *probe.Probe, now *int64) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &InvariantViolation{Cycle: *now, Msg: fmt.Sprint(r)}
		}
	}()
	wd := newWatchdog(o)
	// Cancellation poll: the Done channel is hoisted out of the loop
	// (acquiring it can allocate for derived contexts) and consulted on
	// the watchdog's cadence, so an un-cancelled run pays one mask test
	// and a nil compare per cycle.
	var ctxDone <-chan struct{}
	if o.Ctx != nil {
		ctxDone = o.Ctx.Done()
	}
	step := func() error {
		fab.Step(*now)
		if ring != nil {
			ring.Tick(*now, fab.InFlight())
		}
		if ctxDone != nil && *now&watchdogCheckMask == 0 {
			select {
			case <-ctxDone:
				return &CanceledError{Cycle: *now, Cause: o.Ctx.Err()}
			default:
			}
		}
		if o.AuditEvery > 0 && *now%o.AuditEvery == 0 {
			if err := fab.Audit(); err != nil {
				return err
			}
		}
		if wd != nil {
			if err := wd.check(col, fab.InFlight(), *now); err != nil {
				return err
			}
		}
		return nil
	}
	genEnd := o.Warmup + o.Measure
	for ; *now < genEnd; *now++ {
		gen.Tick(fab, *now)
		if err := step(); err != nil {
			return err
		}
	}
	// Drain: no new traffic; stop early once the network is empty.
	// The conservation audit keeps its cadence here too — drain-phase
	// invariant violations must not go unnoticed.
	drainEnd := genEnd + o.Drain
	for ; *now < drainEnd && fab.InFlight() > 0; *now++ {
		if err := step(); err != nil {
			return err
		}
	}
	return nil
}
