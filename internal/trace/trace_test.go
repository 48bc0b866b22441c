package trace

import (
	"errors"
	"strings"
	"testing"

	"surfbless/internal/config"
	"surfbless/internal/geom"
	"surfbless/internal/packet"
	"surfbless/internal/probe"
	"surfbless/internal/sim"
	"surfbless/internal/traffic"
)

func TestLineFormat(t *testing.T) {
	var sb strings.Builder
	mesh := geom.NewMesh(4, 5)
	w := New(&sb)
	w.Arm(probe.Config{Mesh: mesh, Domains: 2})
	w.Consume([]probe.Event{
		{Cycle: 41, Created: 10, ID: 7, Node: 9, Src: -1, Dst: -1, Flits: 1, Domain: 1, Kind: probe.KindLinkBusy},
		{Cycle: 42, Created: 10, ID: 7, Node: int32(mesh.ID(geom.Coord{X: 3, Y: 4})),
			Src: int32(mesh.ID(geom.Coord{X: 1, Y: 2})), Dst: int32(mesh.ID(geom.Coord{X: 3, Y: 4})),
			Flits: 1, Domain: 1, Kind: probe.KindEjected, Hops: 5, Deflections: 2},
		{Cycle: 42, Node: -1, Src: -1, Dst: -1, Flits: 3, Kind: probe.KindTick},
		{Cycle: 43, Node: -1, Src: -1, Dst: -1, Domain: 0, Kind: probe.KindRefused},
	})
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want 2 (router and tick events skipped)", len(lines))
	}
	if lines[0] != "42,ejected,7,1,1:2,3:4,5,2" {
		t.Errorf("ejection line = %q", lines[0])
	}
	if lines[1] != "43,refused,,0,,,," {
		t.Errorf("refusal line = %q", lines[1])
	}
	if w.Events() != 2 {
		t.Errorf("Events = %d", w.Events())
	}
	// Field count matches the header.
	if got, want := strings.Count(lines[0], ","), strings.Count(Header(), ","); got != want {
		t.Errorf("line has %d commas, header %d", got, want)
	}
}

// End to end: trace a real BLESS run through a tap and check the event
// accounting matches the run's statistics.
func TestTraceRealRun(t *testing.T) {
	var sb strings.Builder
	cfg := config.Default(config.BLESS)
	cfg.Domains = 1
	w := New(&sb)
	res, err := sim.Run(sim.Options{
		Cfg: cfg, Pattern: traffic.UniformRandom, Seed: 3,
		Sources: []traffic.Source{{Rate: 0.1, Class: packet.Ctrl, VNet: -1}},
		Measure: 50, Drain: 500,
		Taps: []probe.Tap{w},
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Flush()
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	tot := res.Total
	if want := tot.Created + tot.Refused + tot.Injected + tot.Ejected; int64(len(lines)) != want || w.Events() != want {
		t.Errorf("%d trace lines, %d events, want %d (created+refused+injected+ejected)", len(lines), w.Events(), want)
	}
	if int64(strings.Count(sb.String(), ",ejected,")) != tot.Ejected || tot.Ejected == 0 {
		t.Errorf("ejection count mismatch: trace %d, run %d", strings.Count(sb.String(), ",ejected,"), tot.Ejected)
	}
}

// closeRecorder counts Close calls and can inject a close error.
type closeRecorder struct {
	strings.Builder
	closed int
	err    error
}

func (c *closeRecorder) Close() error {
	c.closed++
	return c.err
}

var errClose = errors.New("disk full")

func TestCloseFlushesAndClosesUnderlying(t *testing.T) {
	var rec closeRecorder
	w := New(&rec)
	w.Arm(probe.Config{Mesh: geom.NewMesh(2, 2), Domains: 1})
	w.Consume([]probe.Event{{Cycle: 9, Created: 5, ID: 1, Node: 1, Src: 0, Dst: 1, Kind: probe.KindEjected}})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if rec.closed != 1 {
		t.Errorf("underlying Close called %d times, want 1", rec.closed)
	}
	if !strings.Contains(rec.String(), "ejected") {
		t.Errorf("Close did not flush the buffered event: %q", rec.String())
	}
}

func TestClosePropagatesError(t *testing.T) {
	rec := closeRecorder{err: errClose}
	w := New(&rec)
	if err := w.Close(); err != errClose {
		t.Errorf("Close error = %v, want %v", err, errClose)
	}
	// A plain non-Closer writer: Close degrades to Flush.
	var sb strings.Builder
	if err := New(&sb).Close(); err != nil {
		t.Errorf("Close on non-Closer = %v", err)
	}
}

// TestCloseIdempotent is the regression test for the double-Close
// hazard: a second Close must not flush again, must not close the
// underlying file a second time, and must return the first call's
// error unchanged.
func TestCloseIdempotent(t *testing.T) {
	var rec closeRecorder
	w := New(&rec)
	for i := 0; i < 3; i++ {
		if err := w.Close(); err != nil {
			t.Fatalf("Close #%d: %v", i+1, err)
		}
	}
	if rec.closed != 1 {
		t.Errorf("underlying Close called %d times, want 1", rec.closed)
	}

	// The sticky error path: every Close reports the same failure.
	rec2 := closeRecorder{err: errClose}
	w2 := New(&rec2)
	if err := w2.Close(); err != errClose {
		t.Fatalf("first Close = %v, want %v", err, errClose)
	}
	if err := w2.Close(); err != errClose {
		t.Errorf("second Close = %v, want the sticky %v", err, errClose)
	}
	if rec2.closed != 1 {
		t.Errorf("underlying Close retried %d times after an error, want 1", rec2.closed)
	}
}
