package sim

import "fmt"

// InvariantViolation is a router invariant panic caught at the sim
// boundary.  Fault plans can push fabrics into states the fault-free
// correctness proofs exclude; when that happens the panic is converted
// into this typed error (wrapped in a DegradedError) instead of
// killing the whole sweep process.
type InvariantViolation struct {
	Cycle int64 // cycle being stepped when the fabric panicked
	Msg   string
}

func (e *InvariantViolation) Error() string {
	return fmt.Sprintf("sim: invariant violation at cycle %d: %s", e.Cycle, e.Msg)
}

// DegradedKind classifies why a run degraded, so harnesses and the
// sweep service can decide between "retry might help" and "this point
// is permanently wedged".  Every simulation is deterministic, but the
// distinction still matters operationally: a fault-wedge on a blocking
// fabric (WH/Surf with a killed link or frozen router in a packet's
// only path) reproduces on every attempt, while livelock/starvation on
// a deflecting fabric describes traffic pathology worth reporting as
// data rather than failure.
type DegradedKind int

const (
	// KindUnknown is the zero value for errors predating classification.
	KindUnknown DegradedKind = iota
	// KindLivelock is a global no-progress trip on a fabric that is not
	// wedge-prone: packets keep moving without resolving.
	KindLivelock
	// KindStarvation is a per-packet age-ceiling trip: the network makes
	// progress overall but leaves at least one packet behind.
	KindStarvation
	// KindFaultWedge is a watchdog trip on a blocking fabric (WH/Surf)
	// with a fault plan armed: a killed link or frozen router has
	// blocked a path with no deflection escape, so the wedge is
	// permanent and retrying the point cannot help.
	KindFaultWedge
	// KindInvariant is a recovered fabric invariant panic.
	KindInvariant
)

var degradedKindNames = map[DegradedKind]string{
	KindUnknown:    "unknown",
	KindLivelock:   "livelock",
	KindStarvation: "starvation",
	KindFaultWedge: "fault-wedge",
	KindInvariant:  "invariant",
}

func (k DegradedKind) String() string {
	if s, ok := degradedKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DegradedKind(%d)", int(k))
}

// Permanent reports whether rerunning the same options is guaranteed to
// degrade again for a structural reason: fault wedges and invariant
// panics are properties of the (deterministic) configuration, not of
// transient host conditions, so the sweep service marks such points
// permanently failed instead of burning retry budget on them.
func (k DegradedKind) Permanent() bool {
	return k == KindFaultWedge || k == KindInvariant
}

// DegradedError reports a run that did not complete healthily — the
// livelock/starvation watchdog tripped, or a fabric invariant panic
// was recovered — but still produced meaningful partial statistics.
// Run returns the same partial Result alongside the error, so callers
// that only look at the error lose nothing, while sweep harnesses can
// record the partial row and move on to the next point.
type DegradedError struct {
	Reason  string
	Kind    DegradedKind // classified cause (fault-wedge vs starvation …)
	Cycle   int64        // cycle at which degradation was detected
	Partial Result       // statistics up to Cycle (energy, latency, counts)
	Cause   error        // underlying *InvariantViolation, if any
}

func (e *DegradedError) Error() string {
	if e.Cause != nil {
		return fmt.Sprintf("sim: degraded at cycle %d: %s: %v", e.Cycle, e.Reason, e.Cause)
	}
	return fmt.Sprintf("sim: degraded at cycle %d: %s", e.Cycle, e.Reason)
}

func (e *DegradedError) Unwrap() error { return e.Cause }

// CanceledError reports a run stopped by its Options.Ctx — a per-point
// timeout or a worker drain, not a simulation outcome.  It wraps the
// context's error so errors.Is(err, context.DeadlineExceeded) (or
// context.Canceled) distinguishes timeouts from shutdowns.
type CanceledError struct {
	Cycle int64 // cycle at which cancellation was observed
	Cause error // the context's Err()

	// Partial carries the statistics accumulated up to the cancellation,
	// with MeasuredCycles clamped to the covered window (zero when the
	// run was canceled inside warm-up) — mirroring DegradedError so
	// harnesses that record canceled points never divide by the full
	// measure window.
	Partial Result
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: canceled at cycle %d: %v", e.Cycle, e.Cause)
}

func (e *CanceledError) Unwrap() error { return e.Cause }
