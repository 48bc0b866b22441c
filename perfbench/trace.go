package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary.  Parent is the ID of
// the span that caused it (0 for a root); the spans of one op or sweep
// batch share their root's ID through the parent chain.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's base
	End    int64  `json:"end_ns"`
}

// fold summarizes the per-cycle spans of one layer inside one op:
// count, summed duration, self time (the sum minus what child layers
// cover) and, when kept, the median and p99 of one span.  In names the
// fold whose spans enclose these ones ("" = directly under Parent).
type fold struct {
	Parent int    `json:"parent"`
	In     string `json:"in,omitempty"`
	Name   string `json:"name"`
	Count  int64  `json:"count"`
	SumNS  int64  `json:"sum_ns"`
	SelfNS int64  `json:"self_ns"`
	P50NS  int64  `json:"p50_ns,omitempty"`
	P99NS  int64  `json:"p99_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends.  It is safe for
// concurrent use: the sweep workload records from HTTP, coordinator
// and worker goroutines.
type tracer struct {
	mu    sync.Mutex
	base  time.Time
	spans []span
	folds []fold
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name,
		Start: int64(start.Sub(t.base)), End: int64(end.Sub(t.base))})
	return id
}

// open records a span whose end is set later by close.
func (t *tracer) open(name string, parent int) int {
	return t.add(name, parent, time.Now(), time.Now())
}

// close ends an open span and returns its duration.
func (t *tracer) close(id int) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.base))
	return time.Duration(s.End - s.Start)
}

func (t *tracer) fold(f fold) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.folds = append(t.folds, f)
}

// layerRow is one line of the self-time table.
type layerRow struct {
	Name    string
	Count   int64
	TotalNS int64
	SelfNS  int64
}

// table aggregates spans and folds by layer name.  A span's self time
// is its duration minus the union of its child spans' intervals and
// the summed time of its child folds; a fold's self time is recorded
// with it.
func (t *tracer) table() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	foldSum := map[int]int64{}
	for _, f := range t.folds {
		if f.In == "" {
			foldSum[f.Parent] += f.SumNS
		}
	}
	rows := map[string]*layerRow{}
	row := func(name string) *layerRow {
		if rows[name] == nil {
			rows[name] = &layerRow{Name: name}
		}
		return rows[name]
	}
	for _, s := range t.spans {
		r := row(s.Name)
		r.Count++
		r.TotalNS += s.End - s.Start
		r.SelfNS += max(0, s.End-s.Start-covered(s, kids[s.ID])-foldSum[s.ID])
	}
	for _, f := range t.folds {
		r := row(f.Name)
		r.Count += f.Count
		r.TotalNS += f.SumNS
		r.SelfNS += f.SelfNS
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNS > out[j].SelfNS })
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent.
func covered(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// printTable writes the per-layer self-time table.
func printTable(w io.Writer, workload string, rows []layerRow) {
	var self int64
	for _, r := range rows {
		self += r.SelfNS
	}
	fmt.Fprintf(w, "per-layer self time, %s (traced batches)\n", workload)
	fmt.Fprintf(w, "%-28s %12s %12s %12s %7s\n", "layer", "count", "total_ms", "self_ms", "self%")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %12d %12.3f %12.3f %6.1f%%\n", r.Name, r.Count,
			float64(r.TotalNS)/1e6, float64(r.SelfNS)/1e6, 100*ratio(float64(r.SelfNS), float64(self)))
	}
}

// write saves every span and fold as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
		Folds []fold `json:"folds"`
	}{t.spans, t.folds})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
