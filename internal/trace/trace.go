// Package trace renders a run's event stream for people and tools.
// Writer is a probe tap that writes the packet lifecycle events as a
// line-oriented trace, for debugging schedules and for offline
// analysis (each line is also valid CSV); Perfetto renders the whole
// stream as Chrome trace JSON.  Both take only their output when
// built: the run that they tap arms them with its mesh.
//
// Format, one event per line:
//
//	cycle,kind,packet_id,domain,srcX:srcY,dstX:dstY,hops,deflections
//
// hops and deflections are the packet's counts as of the event.
// Refusals have no packet; they log the domain with empty packet
// fields.  Writing is buffered; call Flush (or Close) when done.
package trace

import (
	"bufio"
	"fmt"
	"io"

	"surfbless/internal/geom"
	"surfbless/internal/probe"
)

// Writer streams packet lifecycle events.  It is a probe tap: give it
// to a run (sim.Options.Taps), which arms it with the run's mesh; it
// skips router and tick events.
type Writer struct {
	bw     *bufio.Writer
	out    io.Writer
	mesh   geom.Mesh
	events int64
	closed bool
	cerr   error
}

// New returns a Writer emitting to w.
func New(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriter(w), out: w}
}

// Arm implements probe.Tap: routes print as coordinates of cfg.Mesh.
// The writer reads no router events.
func (t *Writer) Arm(cfg probe.Config) bool {
	t.mesh = cfg.Mesh
	return false
}

// Consume implements probe.Tap.
func (t *Writer) Consume(batch []probe.Event) {
	for i := range batch {
		e := &batch[i]
		switch e.Kind {
		case probe.KindRefused:
			fmt.Fprintf(t.bw, "%d,%s,,%d,,,,\n", e.Cycle, e.Kind, e.Domain)
		case probe.KindCreated, probe.KindInjected, probe.KindEjected, probe.KindDropped, probe.KindRetransmit:
			src, dst := t.mesh.CoordOf(int(e.Src)), t.mesh.CoordOf(int(e.Dst))
			fmt.Fprintf(t.bw, "%d,%s,%d,%d,%d:%d,%d:%d,%d,%d\n",
				e.Cycle, e.Kind, e.ID, e.Domain, src.X, src.Y, dst.X, dst.Y, e.Hops, e.Deflections)
		default:
			continue
		}
		t.events++
	}
}

// Events returns the number of events written so far.
func (t *Writer) Events() int64 { return t.events }

// Flush drains the buffer to the underlying writer.
func (t *Writer) Flush() error { return t.bw.Flush() }

// Close flushes the buffer and, when the underlying writer is an
// io.Closer (a file), closes it too; the first error wins.  Close is
// idempotent: a second call is a no-op returning the first call's
// error, never a second flush or double-close of the file (both
// cleanup paths of a driver may reach the same Writer).  After Close
// the Writer must not be used for new events.
func (t *Writer) Close() error {
	if t.closed {
		return t.cerr
	}
	t.closed = true
	err := t.bw.Flush()
	if c, ok := t.out.(io.Closer); ok {
		if cerr := c.Close(); err == nil {
			err = cerr
		}
	}
	t.cerr = err
	return err
}

// Header returns the CSV header matching the line format.
func Header() string {
	return "cycle,kind,packet_id,domain,src,dst,hops,deflections"
}
