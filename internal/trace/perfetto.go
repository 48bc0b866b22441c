// Chrome-trace (Perfetto) export: renders the probe's event stream as
// a Trace Event Format JSON file loadable in https://ui.perfetto.dev
// or chrome://tracing.  Two views are emitted:
//
//   - Per-hop slices: every link traversal becomes a 1-cycle complete
//     event on the packet's own track (pid "domain D" / tid "packet N"),
//     named for the router and out-link it crossed — deflections are
//     flagged in the slice name, so a packet's zig-zag through the mesh
//     reads directly off the timeline.
//   - Per-packet life spans: one slice from creation to ejection (or
//     drop) per delivered packet on the same track, underneath its hops.
//
// One simulated cycle maps to one microsecond of trace time (ts/dur
// are µs in the format), so cycle numbers read directly as µs in the
// UI.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"surfbless/internal/geom"
	"surfbless/internal/probe"
)

// Perfetto streams probe events into Chrome trace JSON.  It is a probe
// tap: give it to a run (sim.Options.Taps), then Close it after the
// run to emit the closing bracket.  Like the probe it is
// single-goroutine.
type Perfetto struct {
	bw     *bufio.Writer
	out    io.Writer
	mesh   geom.Mesh
	n      int64
	closed bool
	cerr   error
}

// NewPerfetto returns an exporter writing Chrome trace JSON to w.
func NewPerfetto(w io.Writer) *Perfetto {
	p := &Perfetto{bw: bufio.NewWriter(w), out: w}
	fmt.Fprint(p.bw, `{"displayTimeUnit":"ms","traceEvents":[`)
	return p
}

// Arm implements probe.Tap: slices name routers by their coordinates
// in cfg.Mesh.
func (p *Perfetto) Arm(cfg probe.Config) { p.mesh = cfg.Mesh }

// Events returns the number of trace events emitted so far.
func (p *Perfetto) Events() int64 { return p.n }

func (p *Perfetto) sep() {
	if p.n > 0 {
		p.bw.WriteByte(',')
	}
	p.n++
}

// dirName names an out-link direction for slice labels.
func dirName(d geom.Dir) string {
	switch d {
	case geom.North:
		return "N"
	case geom.East:
		return "E"
	case geom.South:
		return "S"
	case geom.West:
		return "W"
	default:
		return "L"
	}
}

// Consume implements probe.Tap: each batch becomes hop slices and
// packet life spans.  Ticks and NI-side bookkeeping events carry no
// timeline geometry and are skipped.
func (p *Perfetto) Consume(batch []probe.Event) {
	if p.closed {
		return
	}
	for i := range batch {
		e := &batch[i]
		switch e.Kind {
		case probe.KindLinkBusy, probe.KindDeflect:
			c := p.mesh.CoordOf(int(e.Node))
			label := ""
			if e.Kind == probe.KindDeflect {
				label = " deflect"
			}
			p.sep()
			fmt.Fprintf(p.bw,
				`{"name":"hop %d,%d→%s%s","cat":"hop","ph":"X","ts":%d,"dur":1,"pid":%d,"tid":%d,"args":{"flits":%d}}`,
				c.X, c.Y, dirName(geom.Dir(e.Dir)), label, e.Cycle, e.Domain, e.ID, e.Flits)
		case probe.KindEjected, probe.KindDropped:
			src, dst := p.mesh.CoordOf(int(e.Src)), p.mesh.CoordOf(int(e.Dst))
			name, cat := "packet", "packet"
			if e.Kind == probe.KindDropped {
				name, cat = "packet (dropped)", "drop"
			}
			dur := e.Cycle - e.Created
			if dur < 1 {
				dur = 1
			}
			p.sep()
			fmt.Fprintf(p.bw,
				`{"name":"%s %d,%d→%d,%d","cat":"%s","ph":"X","ts":%d,"dur":%d,"pid":%d,"tid":%d,"args":{"id":%d}}`,
				name, src.X, src.Y, dst.X, dst.Y, cat, e.Created, dur, e.Domain, e.ID, e.ID)
		}
	}
}

// Close emits the closing bracket, flushes, and closes the underlying
// writer when it is an io.Closer.  Idempotent like trace.Writer.Close.
func (p *Perfetto) Close() error {
	if p.closed {
		return p.cerr
	}
	p.closed = true
	fmt.Fprint(p.bw, "]}\n")
	err := p.bw.Flush()
	if c, ok := p.out.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	p.cerr = err
	return err
}
