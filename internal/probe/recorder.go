package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"surfbless/internal/geom"
)

// DefaultFlightWindow is the number of trailing cycles a flight
// recorder retains when the caller does not choose a window.
const DefaultFlightWindow = 512

// flightCap bounds the recorder's ring: at most this many events are
// held regardless of the cycle window, so a recorder's memory is fixed
// at construction no matter how hot the fabric runs.
const flightCap = 1 << 15

// FlightRecorder is a bounded forensic buffer: as a run's Tap it
// retains the last Window cycles of drained events (up to a fixed
// event capacity) so that the caller can dump a watchdog trip, a
// DegradedError or a WCTA conformance violation and replay it after
// the fact.  Like the probe it is a single-goroutine state machine.
//
//hook:nil-disabled
type FlightRecorder struct {
	window   int64
	buf      []Event
	head     int // next write position
	n        int // live events (≤ len(buf))
	maxCycle int64
}

// NewFlightRecorder returns a recorder retaining the last windowCycles
// cycles of events (≤0 = DefaultFlightWindow).
func NewFlightRecorder(windowCycles int64) *FlightRecorder {
	if windowCycles <= 0 {
		windowCycles = DefaultFlightWindow
	}
	return &FlightRecorder{
		window:   windowCycles,
		buf:      make([]Event, flightCap),
		maxCycle: -1,
	}
}

// Window returns the recorder's retention window in cycles.
func (r *FlightRecorder) Window() int64 { return r.window }

// Arm implements Tap: it discards all recorded events, so a recorder
// can be reused across runs.
func (r *FlightRecorder) Arm(Config) {
	r.head = 0
	r.n = 0
	r.maxCycle = -1
}

// Consume implements Tap: it copies the batch into the ring,
// overwriting the oldest events once full.  Events are copied by
// value — the batch slice is ring memory the probe reuses.
func (r *FlightRecorder) Consume(batch []Event) {
	for i := range batch {
		e := batch[i]
		if e.Cycle > r.maxCycle {
			r.maxCycle = e.Cycle
		}
		r.buf[r.head] = e
		r.head++
		if r.head == len(r.buf) {
			r.head = 0
		}
		if r.n < len(r.buf) {
			r.n++
		}
	}
}

// Snapshot returns the retained events inside the trailing window,
// deterministically ordered by (cycle, node, kind, packet, dir).
// Call Probe.Flush first (sim.Run does when the run ends) so the ring
// segments' freshest events have reached the recorder.
func (r *FlightRecorder) Snapshot() []Event {
	if r == nil || r.n == 0 {
		return nil
	}
	floor := r.maxCycle - r.window + 1
	start := r.head - r.n
	if start < 0 {
		start += len(r.buf)
	}
	out := make([]Event, 0, r.n)
	for i := 0; i < r.n; i++ {
		e := r.buf[(start+i)%len(r.buf)]
		if e.Cycle >= floor {
			out = append(out, e)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Cycle != b.Cycle {
			return a.Cycle < b.Cycle
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		return a.Dir < b.Dir
	})
	return out
}

// FlightDumpVersion is the on-disk schema version of FlightDump.
const FlightDumpVersion = 1

// FlightDump is the serialized form of a flight-recorder snapshot: the
// forensic record a caller that tapped a run with a recorder writes
// when the run degrades (cmd/sweep -flight-dir), and the WCTA
// conformance harness attaches to a violated Report.  cmd/replay
// -flight renders it as a timeline.
type FlightDump struct {
	Version int     `json:"version"`
	Reason  string  `json:"reason"` // what tripped the dump (watchdog reason, panic, "wcta-conformance", …)
	Cycle   int64   `json:"cycle"`  // cycle the run stopped/tripped at
	Window  int64   `json:"window_cycles"`
	Model   string  `json:"model,omitempty"`
	Width   int     `json:"mesh_width,omitempty"`
	Height  int     `json:"mesh_height,omitempty"`
	Domains int     `json:"domains,omitempty"`
	Events  []Event `json:"events"`
}

// Dump snapshots the recorder into a FlightDump describing the failed
// run.  mesh/domains may be zero when unknown.
func (r *FlightRecorder) Dump(reason string, cycle int64, model string, mesh geom.Mesh, domains int) *FlightDump {
	if r == nil {
		return nil
	}
	return &FlightDump{
		Version: FlightDumpVersion,
		Reason:  reason,
		Cycle:   cycle,
		Window:  r.window,
		Model:   model,
		Width:   mesh.Width,
		Height:  mesh.Height,
		Domains: domains,
		Events:  r.Snapshot(),
	}
}

// WriteJSON writes the dump as indented JSON.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(d)
}

// ReadFlightDump parses a dump written by WriteJSON.
func ReadFlightDump(r io.Reader) (*FlightDump, error) {
	var d FlightDump
	if err := json.NewDecoder(r).Decode(&d); err != nil {
		return nil, fmt.Errorf("flight dump: %w", err)
	}
	if d.Version != FlightDumpVersion {
		return nil, fmt.Errorf("flight dump: unsupported version %d (want %d)", d.Version, FlightDumpVersion)
	}
	return &d, nil
}
