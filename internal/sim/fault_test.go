package sim

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/fault"
	"surfbless/internal/network"
	"surfbless/internal/packet"
	"surfbless/internal/stats"
	"surfbless/internal/traffic"
)

// faultyOptions returns a run of model with a mixed fault plan: a
// transient router freeze, a flapping link and a lossy link.
func faultyOptions(model config.Model, maxRetries int) Options {
	cfg := config.Default(model)
	cfg.Domains = 2
	cfg.Faults = &fault.Plan{
		Seed:       7,
		MaxRetries: maxRetries,
		Events: []fault.Event{
			{Kind: fault.RouterFreeze, Node: 27, At: 500, Repair: 300, Period: 1000},
			{Kind: fault.LinkFlap, Node: 36, Dir: int(0 /* North */), At: 200, Repair: 200, Period: 800},
			{Kind: fault.PacketDrop, Node: 28, Dir: int(1 /* East */), At: 0, Prob: 0.3},
		},
	}
	return Options{
		Cfg:        cfg,
		Pattern:    traffic.UniformRandom,
		Sources:    ctrlSources(2, 0.05),
		Warmup:     200,
		Measure:    3000,
		Drain:      8000,
		Seed:       42,
		AuditEvery: 500,
	}
}

// A fault-plan run must be deterministic for a fixed seed and actually
// exercise the drop/retransmit machinery.
func TestFaultRunDeterministic(t *testing.T) {
	a, err := Run(faultyOptions(config.SB, 1))
	if err != nil {
		t.Fatalf("run A: %v", err)
	}
	b, err := Run(faultyOptions(config.SB, 1))
	if err != nil {
		t.Fatalf("run B: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Errorf("fault run not deterministic:\nA: %+v\nB: %+v", a, b)
	}
	if a.Total.Retransmits == 0 {
		t.Errorf("no retransmissions despite a 0.3 packet-drop link")
	}
	if a.Total.Dropped == 0 {
		t.Errorf("no drops despite retry budget 1 on a 0.3 packet-drop link")
	}
	perDomain := int64(0)
	for _, d := range a.Domains {
		perDomain += d.Dropped + d.Retransmits
	}
	if perDomain == 0 {
		t.Errorf("fault accounting missing from per-domain stats: %+v", a.Domains)
	}
	t.Logf("created %d ejected %d dropped %d retransmits %d left %d",
		a.Total.Created, a.Total.Ejected, a.Total.Dropped, a.Total.Retransmits, a.LeftInFlight)
}

// An armed injector whose windows never open must not perturb results:
// the fault-free run and the never-active-fault run must be
// bit-identical (the nil checks on the hot path are behavior-neutral).
func TestInactiveFaultsBitIdentical(t *testing.T) {
	for _, m := range []config.Model{config.BLESS, config.SB, config.CHIPPER, config.RUNAHEAD, config.WH} {
		base := Options{
			Cfg:        config.Default(m),
			Pattern:    traffic.UniformRandom,
			Sources:    ctrlSources(1, 0.05),
			Warmup:     200,
			Measure:    2000,
			Drain:      5000,
			Seed:       9,
			AuditEvery: 500,
		}
		clean, err := Run(base)
		if err != nil {
			t.Fatalf("%v clean: %v", m, err)
		}
		armed := base
		armed.Cfg.Faults = &fault.Plan{Events: []fault.Event{
			// Activates long after the longest possible run.
			{Kind: fault.RouterFreeze, Node: 0, At: 1 << 40, Repair: 1},
		}}
		faulty, err := Run(armed)
		if err != nil {
			t.Fatalf("%v armed: %v", m, err)
		}
		if !reflect.DeepEqual(clean, faulty) {
			t.Errorf("%v: inactive fault plan changed results:\nclean: %+v\narmed: %+v", m, clean, faulty)
		}
	}
}

// A permanent link kill on the wormhole baseline wedges XY routing;
// the watchdog must convert the wedge into a DegradedError carrying
// partial statistics, not an infinite drain.
func TestWatchdogConvertsWedgeToDegradedError(t *testing.T) {
	cfg := config.Default(config.WH)
	cfg.Width, cfg.Height = 4, 4
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkKill, Node: 0, Dir: int(1 /* East */), At: 0},
	}}
	_, err := Run(Options{
		Cfg:     cfg,
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(1, 0.05),
		Warmup:  0,
		Measure: 3000,
		Drain:   50000,
		Seed:    3,
		// Small explicit thresholds so the test stays fast.
		WatchdogNoProgress: 3000,
		WatchdogMaxAge:     -1,
	})
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected DegradedError, got %v", err)
	}
	if de.Kind != KindFaultWedge {
		t.Errorf("Kind = %v, want %v (blocking fabric wedged by an armed fault)", de.Kind, KindFaultWedge)
	}
	if !de.Kind.Permanent() {
		t.Errorf("a fault-wedge must classify as permanent")
	}
	if !strings.Contains(de.Reason, "fault-wedge") {
		t.Errorf("reason %q, want a fault-wedge report", de.Reason)
	}
	if de.Partial.Total.Created == 0 || de.Partial.Total.Ejected == 0 {
		t.Errorf("partial stats empty: %+v", de.Partial.Total)
	}
	if de.Partial.LeftInFlight == 0 {
		t.Errorf("degraded run reports an empty network")
	}
	t.Logf("degraded: %v (ejected %d of %d, %d stuck)", de,
		de.Partial.Total.Ejected, de.Partial.Total.Created, de.Partial.LeftInFlight)
}

// A degraded run that ends mid-measurement must report the cycles it
// actually measured, not the full configured window: Throughput divides
// ejections by MeasuredCycles, so the configured o.Measure would
// silently under-report the accepted rate of every degraded point in a
// fault sweep.
func TestDegradedRunClampsMeasuredCycles(t *testing.T) {
	cfg := config.Default(config.WH)
	cfg.Width, cfg.Height = 4, 4
	// Freeze the whole mesh shortly after warmup: with every router
	// granting nothing, progress stops completely and the no-progress
	// check must fire well inside the measurement window.
	events := make([]fault.Event, cfg.Nodes())
	for i := range events {
		events[i] = fault.Event{Kind: fault.RouterFreeze, Node: i, At: 1000}
	}
	cfg.Faults = &fault.Plan{Events: events}
	const warmup, measure = 200, 50000
	res, err := Run(Options{
		Cfg:                cfg,
		Pattern:            traffic.UniformRandom,
		Sources:            ctrlSources(1, 0.05),
		Warmup:             warmup,
		Measure:            measure, // far longer than the watchdog allows
		Drain:              50000,
		Seed:               3,
		WatchdogNoProgress: 3000,
		WatchdogMaxAge:     -1,
	})
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected DegradedError, got %v", err)
	}
	if res.MeasuredCycles >= measure {
		t.Fatalf("MeasuredCycles = %d, want < %d (run was cut short)", res.MeasuredCycles, measure)
	}
	if want := res.Cycles - warmup; res.MeasuredCycles != want {
		t.Errorf("MeasuredCycles = %d, want %d (Cycles %d − Warmup %d)",
			res.MeasuredCycles, want, res.Cycles, warmup)
	}
	if res.MeasuredCycles <= 0 {
		t.Fatalf("MeasuredCycles = %d, want > 0 (watchdog tripped after warmup)", res.MeasuredCycles)
	}
	// Throughput must use the clamped denominator.
	want := float64(res.Domains[0].Ejected) / float64(res.Nodes) / float64(res.MeasuredCycles)
	if got := res.Throughput(0); got != want {
		t.Errorf("Throughput(0) = %g, want %g", got, want)
	}
	if res.Throughput(0) == 0 {
		t.Error("degraded run reports zero throughput despite ejections")
	}

	// The same clamp must hold when the run ends by context cancellation
	// instead of degradation — and in the harshest spot: inside warm-up,
	// where the covered measurement window is empty.  The cycle loop
	// polls the context every 1024th cycle, so a pre-canceled context
	// stops the run well before a 5000-cycle warm-up completes.
	t.Run("canceled-in-warmup", func(t *testing.T) {
		cfg := config.Default(config.WH)
		cfg.Width, cfg.Height = 4, 4
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		res, err := Run(Options{
			Cfg:     cfg,
			Pattern: traffic.UniformRandom,
			Sources: ctrlSources(1, 0.05),
			Warmup:  5000,
			Measure: 10000,
			Drain:   10000,
			Seed:    3,
			Ctx:     ctx,
		})
		var ce *CanceledError
		if !errors.As(err, &ce) {
			t.Fatalf("expected CanceledError, got %v", err)
		}
		if ce.Cycle >= 5000 {
			t.Fatalf("canceled at cycle %d, want inside the 5000-cycle warm-up", ce.Cycle)
		}
		if res.MeasuredCycles != 0 {
			t.Errorf("MeasuredCycles = %d, want 0 (cancellation landed inside warm-up)", res.MeasuredCycles)
		}
		if got := res.Throughput(0); got != 0 {
			t.Errorf("Throughput(0) = %g, want 0 with an empty measurement window", got)
		}
		if !reflect.DeepEqual(res, ce.Partial) {
			t.Errorf("returned Result differs from CanceledError.Partial")
		}
		if res.Cycles != ce.Cycle {
			t.Errorf("Cycles = %d, want the cancellation cycle %d", res.Cycles, ce.Cycle)
		}
	})
}

// The starvation (age-ceiling) check must fire even while unrelated
// traffic keeps the no-progress detector happy.
func TestWatchdogAgeCeiling(t *testing.T) {
	cfg := config.Default(config.WH)
	cfg.Width, cfg.Height = 4, 4
	cfg.Faults = &fault.Plan{Events: []fault.Event{
		{Kind: fault.LinkKill, Node: 0, Dir: int(1 /* East */), At: 0},
	}}
	_, err := Run(Options{
		Cfg:                cfg,
		Pattern:            traffic.UniformRandom,
		Sources:            ctrlSources(1, 0.05),
		Measure:            10000,
		Drain:              30000,
		Seed:               3,
		WatchdogNoProgress: -1,
		WatchdogMaxAge:     8000,
	})
	var de *DegradedError
	if !errors.As(err, &de) {
		t.Fatalf("expected DegradedError, got %v", err)
	}
	if de.Kind != KindFaultWedge {
		t.Errorf("Kind = %v, want %v (WH age-ceiling trip under an armed fault plan)", de.Kind, KindFaultWedge)
	}
	if !strings.Contains(de.Reason, "fault-wedge") {
		t.Errorf("reason %q, want a fault-wedge report", de.Reason)
	}
	// The check is pigeonhole-based, so it is conservative: it cannot
	// fire before the creation window catches up with the stragglers,
	// but it must fire well before the drain budget runs out.
	if de.Cycle >= 10000+30000 {
		t.Errorf("age ceiling never fired within the drain budget")
	}
}

// Runs that end with packets still in flight and packets dropped must
// still satisfy conservation per domain (created = ejected + dropped +
// in-flight), exercised through the final audit.
func TestConservationWithDropsAndLeftInFlight(t *testing.T) {
	o := faultyOptions(config.SB, -1) // -1: no retries, every fault loss is a drop
	o.Drain = 3                       // cut the drain short to strand packets
	res, err := Run(o)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.LeftInFlight == 0 {
		t.Fatalf("expected stranded packets with a 40-cycle drain")
	}
	if res.Total.Dropped == 0 {
		t.Fatalf("expected drops with retries disabled")
	}
	if got := res.Total.Created - res.Total.Ejected - res.Total.Dropped; got != int64(res.LeftInFlight) {
		t.Errorf("created-ejected-dropped = %d but %d in flight", got, res.LeftInFlight)
	}
}

// panicFabric wedges runLoop's recover boundary: it explodes at a set
// cycle, standing in for a router invariant violation.
type panicFabric struct {
	at       int64
	inFlight int
}

func (f *panicFabric) Inject(node int, p *packet.Packet, now int64) bool {
	f.inFlight++
	return true
}

func (f *panicFabric) Step(now int64) {
	if now >= f.at {
		panic("port balance violated (test)")
	}
}

func (f *panicFabric) InFlight() int { return f.inFlight }
func (f *panicFabric) Audit() error  { return nil }

var _ network.Fabric = (*panicFabric)(nil)

// runLoop must convert a fabric panic into a typed InvariantViolation
// carrying the cycle, instead of unwinding the caller.
func TestRunLoopRecoversFabricPanic(t *testing.T) {
	o := Options{
		Cfg:     config.Default(config.SB),
		Pattern: traffic.UniformRandom,
		Sources: ctrlSources(1, 0.05),
		Warmup:  0,
		Measure: 1000,
	}
	col := stats.NewCollector(1, 0, 1000)
	gen := traffic.New(o.Cfg.Mesh(), o.Pattern, o.Sources, 1)
	now := int64(0)
	err := runLoop(o, &panicFabric{at: 250}, gen, col, &now)
	var iv *InvariantViolation
	if !errors.As(err, &iv) {
		t.Fatalf("expected InvariantViolation, got %v", err)
	}
	if iv.Cycle != 250 {
		t.Errorf("violation at cycle %d, want 250", iv.Cycle)
	}
	if iv.Msg != "port balance violated (test)" {
		t.Errorf("message %q lost the panic value", iv.Msg)
	}
}
