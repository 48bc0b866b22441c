package probe

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"surfbless/internal/geom"
	"surfbless/internal/textplot"
)

// SeriesPoint is one JSONL time-series record: one domain over one
// interval.  Field order is the wire schema; keep it stable.
type SeriesPoint struct {
	Start       int64   `json:"start"`
	End         int64   `json:"end"`
	Domain      int     `json:"domain"`
	Created     int64   `json:"created"`
	Refused     int64   `json:"refused"`
	Injected    int64   `json:"injected"`
	Ejected     int64   `json:"ejected"`
	Deflections int64   `json:"deflections"`
	LatencySum  int64   `json:"latency_sum"`
	MeanLatency float64 `json:"mean_latency"`
	InFlight    int64   `json:"in_flight"`
	NetInFlight int64   `json:"net_in_flight"`
}

// WriteTimeSeriesJSONL streams the recorded series as one JSON object
// per line, one line per (interval, domain) in time order.
func (s *Series) WriteTimeSeriesJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, iv := range s.Intervals() {
		for d, ds := range iv.Domains {
			if err := enc.Encode(SeriesPoint{
				Start:       iv.Start,
				End:         iv.End,
				Domain:      d,
				Created:     ds.Created,
				Refused:     ds.Refused,
				Injected:    ds.Injected,
				Ejected:     ds.Ejected,
				Deflections: ds.Deflections,
				LatencySum:  ds.LatencySum,
				MeanLatency: ds.MeanLatency(),
				InFlight:    ds.InFlight,
				NetInFlight: iv.NetInFlight,
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// HeatmapHeader is the CSV header WriteHeatmapCSV emits.
const HeatmapHeader = "node,x,y,flits,deflections,ejections,link_n,link_e,link_s,link_w,util_n,util_e,util_s,util_w"

// WriteHeatmapCSV writes one row per router: traversal/deflection/
// ejection totals plus per-out-link flit counts and utilizations.
func (s *Series) WriteHeatmapCSV(w io.Writer) error {
	h := s.Heatmap()
	if h.RouterFlits == nil {
		return fmt.Errorf("probe: heatmap export before Arm")
	}
	if _, err := fmt.Fprintln(w, HeatmapHeader); err != nil {
		return err
	}
	for id := range h.RouterFlits {
		c := h.Mesh.CoordOf(id)
		_, err := fmt.Fprintf(w, "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.4f,%.4f,%.4f,%.4f\n",
			id, c.X, c.Y,
			h.RouterFlits[id], h.RouterDeflections[id], h.RouterEjections[id],
			h.LinkFlits[id][geom.North], h.LinkFlits[id][geom.East],
			h.LinkFlits[id][geom.South], h.LinkFlits[id][geom.West],
			h.Utilization(id, geom.North), h.Utilization(id, geom.East),
			h.Utilization(id, geom.South), h.Utilization(id, geom.West))
		if err != nil {
			return err
		}
	}
	return nil
}

// Summary renders a per-domain sparkline digest of the run — one line
// per domain and metric (injections, ejections, mean latency, in-flight
// occupancy over the intervals) — for quick terminal inspection.
func (s *Series) Summary() string {
	ivs := s.Intervals()
	if len(ivs) == 0 {
		return "probe: no data recorded\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "probe: %d intervals of %d cycles, %d domains\n",
		len(ivs), s.every, s.cfg.Domains)
	series := func(f func(DomainSlice) float64, d int) []float64 {
		vals := make([]float64, len(ivs))
		for i, iv := range ivs {
			vals[i] = f(iv.Domains[d])
		}
		return vals
	}
	for d := 0; d < s.cfg.Domains; d++ {
		fmt.Fprintf(&b, "  domain %d injected %s\n", d,
			textplot.Spark(series(func(s DomainSlice) float64 { return float64(s.Injected) }, d)))
		fmt.Fprintf(&b, "  domain %d ejected  %s\n", d,
			textplot.Spark(series(func(s DomainSlice) float64 { return float64(s.Ejected) }, d)))
		fmt.Fprintf(&b, "  domain %d latency  %s\n", d,
			textplot.Spark(series(DomainSlice.MeanLatency, d)))
		fmt.Fprintf(&b, "  domain %d inflight %s\n", d,
			textplot.Spark(series(func(s DomainSlice) float64 { return float64(s.InFlight) }, d)))
	}
	return b.String()
}

// WriteFile creates path and streams one exporter into it — a series,
// heatmap or flight-dump writer — returning the first error of either
// the exporter or the file, prefixed with the path.
func WriteFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	cerr := f.Close()
	if werr != nil {
		return fmt.Errorf("%s: %w", path, werr)
	}
	if cerr != nil {
		return fmt.Errorf("%s: %w", path, cerr)
	}
	return nil
}
