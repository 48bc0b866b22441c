package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"surfbless/internal/config"
	"surfbless/internal/probe"
	"surfbless/internal/trace"
	"surfbless/internal/traffic"
)

// Fig5Probe re-runs the §5.1.1 confined-interference experiment with a
// probe.Series tapping every run, producing the time-resolved view
// behind Fig. 5: for BLESS and SB at every interference rate it writes
//
//	fig5_ts_<model>_r<rate>.jsonl    per-interval, per-domain time series
//	fig5_heat_<model>_r<rate>.csv    per-router / per-link heatmap
//	fig5_spans_<model>_r<rate>.json  Chrome-trace hop/packet spans
//
// into dir (created if missing).  Domain 0 is the victim at the fixed
// light load; domain 1 is the interfering domain.  On SB the victim's
// series should stay flat as the interference rate rises; on BLESS it
// degrades — the per-interval data makes that visible cycle-window by
// cycle-window rather than only in the end-of-run average.
//
// The spans file is written only at the highest interference rate —
// the run where deflections and detours are densest — and loads
// directly in https://ui.perfetto.dev; per-packet tracks show every
// hop, with deflections flagged in the slice names.
//
// Tapped runs are never served from the result cache (the series needs
// the real simulation), so expect this to cost two full sweeps.
func Fig5Probe(sc Scale, every int64, dir string) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type point struct {
		model config.Model
		rate  float64
	}
	var points []point
	for _, model := range fig5Models {
		for _, rate := range Fig5Rates {
			points = append(points, point{model, rate})
		}
	}
	spanRate := Fig5Rates[len(Fig5Rates)-1]
	_, err := runPoints(points, func(p point) (struct{}, error) {
		series := probe.NewSeries(every)
		opts := twoDomainOptions(sc, p.model, traffic.UniformRandom, victimRate, p.rate)
		opts.Taps = []probe.Tap{series}
		base := fmt.Sprintf("%v_r%.2f", p.model, p.rate)
		var pf *trace.Perfetto
		if p.rate == spanRate {
			f, err := os.Create(filepath.Join(dir, "fig5_spans_"+base+".json"))
			if err != nil {
				return struct{}{}, err
			}
			pf = trace.NewPerfetto(f)
			opts.Taps = append(opts.Taps, pf)
		}
		_, err := runSim(opts)
		if pf != nil {
			if cerr := pf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
		if err != nil {
			return struct{}{}, fmt.Errorf("fig5 probe %v interference %.2f: %w", p.model, p.rate, err)
		}
		if err := probe.WriteFile(filepath.Join(dir, "fig5_ts_"+base+".jsonl"), series.WriteTimeSeriesJSONL); err != nil {
			return struct{}{}, err
		}
		return struct{}{}, probe.WriteFile(filepath.Join(dir, "fig5_heat_"+base+".csv"), series.WriteHeatmapCSV)
	})
	return err
}
