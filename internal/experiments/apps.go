package experiments

import (
	"fmt"

	"surfbless/internal/config"
	"surfbless/internal/cpu"
	"surfbless/internal/system"
	"surfbless/internal/textplot"
)

// AppRun is one (application, network) full-system result.
type AppRun struct {
	App    string
	Model  config.Model
	Result system.Result
}

// AppsResult holds the §5.2 runs, which feed Figs. 8, 9 and 10.
type AppsResult struct {
	Apps   []string
	Models []config.Model
	Runs   map[string]map[config.Model]system.Result
}

// Apps runs the nine PARSEC-like applications on WH, Surf and SB (the
// paper's §5.2 matrix; BLESS cannot carry the multi-class traffic).
func Apps(sc Scale) (AppsResult, error) {
	if err := sc.Validate(); err != nil {
		return AppsResult{}, err
	}
	res := AppsResult{
		Models: []config.Model{config.WH, config.Surf, config.SB},
		Runs:   map[string]map[config.Model]system.Result{},
	}
	var points []system.Options
	for _, prof := range cpu.Profiles() {
		res.Apps = append(res.Apps, prof.Name)
		res.Runs[prof.Name] = map[config.Model]system.Result{}
		for _, model := range res.Models {
			points = append(points, system.Options{Model: model, App: prof, InstrPerCore: sc.Instr, Seed: sc.Seed})
		}
	}
	outs, err := runPoints(points, func(o system.Options) (system.Result, error) {
		out, err := runSystem(o)
		if err != nil {
			return out, fmt.Errorf("apps %s/%v: %w", o.App.Name, o.Model, err)
		}
		return out, nil
	})
	if err != nil {
		return res, err
	}
	for i, o := range points {
		res.Runs[o.App.Name][o.Model] = outs[i]
	}
	return res, nil
}

// Fig8Table renders application execution time normalized to WH.
func (r AppsResult) Fig8Table() *textplot.Table {
	t := textplot.NewTable("Fig 8: application execution time (normalized to WH)",
		"app", "WH", "Surf", "SB", "Surf_penalty", "SB_penalty")
	var surfSum, sbSum float64
	for _, app := range r.Apps {
		wh := float64(r.Runs[app][config.WH].ExecCycles)
		surf := float64(r.Runs[app][config.Surf].ExecCycles) / wh
		sb := float64(r.Runs[app][config.SB].ExecCycles) / wh
		surfSum += surf
		sbSum += sb
		t.Row(app, "1.000", textplot.F(surf), textplot.F(sb),
			textplot.Pct(surf), textplot.Pct(sb))
	}
	n := float64(len(r.Apps))
	t.Row("geomean-ish avg", "1.000", textplot.F(surfSum/n), textplot.F(sbSum/n),
		textplot.Pct(surfSum/n), textplot.Pct(sbSum/n))
	return t
}

// Fig9Table renders the average packet latency breakdown (queue +
// network), normalized to WH's total latency per application.
func (r AppsResult) Fig9Table() *textplot.Table {
	t := textplot.NewTable("Fig 9: avg packet latency breakdown (normalized to WH total)",
		"app", "WH_queue", "WH_net", "Surf_queue", "Surf_net", "SB_queue", "SB_net")
	for _, app := range r.Apps {
		whTot := r.Runs[app][config.WH].Total.AvgTotalLatency()
		cell := func(m config.Model, queue bool) string {
			tot := r.Runs[app][m].Total
			v := tot.AvgNetworkLatency()
			if queue {
				v = tot.AvgQueueLatency()
			}
			return textplot.F(v / whTot)
		}
		t.Row(app,
			cell(config.WH, true), cell(config.WH, false),
			cell(config.Surf, true), cell(config.Surf, false),
			cell(config.SB, true), cell(config.SB, false))
	}
	return t
}

// Fig10Table renders per-application NoC energy with the link /
// router-dynamic / router-static breakdown.
func (r AppsResult) Fig10Table() *textplot.Table {
	t := textplot.NewTable("Fig 10: NoC energy (mJ): link / router_dynamic / router_static / total",
		"app", "model", "link", "router_dynamic", "router_static", "total", "vs_WH")
	var ratioSum float64
	for _, app := range r.Apps {
		whTot := r.Runs[app][config.WH].Energy.Total()
		for _, m := range r.Models {
			e := r.Runs[app][m].Energy
			t.Row(app, m.String(),
				textplot.MJ(e.Link), textplot.MJ(e.RouterDynamic),
				textplot.MJ(e.RouterStatic), textplot.MJ(e.Total()),
				textplot.F(e.Total()/whTot))
			if m == config.SB {
				ratioSum += e.Total() / whTot
			}
		}
	}
	t.Row("average", "SB", "-", "-", "-", "-",
		textplot.F(ratioSum/float64(len(r.Apps))))
	return t
}

// Tables renders Figs. 8–10.
func (r AppsResult) Tables() []*textplot.Table {
	return []*textplot.Table{r.Fig8Table(), r.Fig9Table(), r.Fig10Table()}
}

// SBEnergySaving returns SB's mean energy reduction vs WH across apps
// (the paper reports 53.6%).
func (r AppsResult) SBEnergySaving() float64 {
	var sum float64
	for _, app := range r.Apps {
		sum += 1 - r.Runs[app][config.SB].Energy.Total()/r.Runs[app][config.WH].Energy.Total()
	}
	return sum / float64(len(r.Apps))
}

// SBExecPenalty returns SB's mean execution-time penalty vs WH (the
// paper reports 3.23%).
func (r AppsResult) SBExecPenalty() float64 {
	var sum float64
	for _, app := range r.Apps {
		sum += float64(r.Runs[app][config.SB].ExecCycles)/float64(r.Runs[app][config.WH].ExecCycles) - 1
	}
	return sum / float64(len(r.Apps))
}
