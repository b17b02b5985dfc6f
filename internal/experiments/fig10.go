package experiments

import (
	"paraverser/internal/core"
)

// Mixes returns the paper's five random SPEC mixes (footnote 19).
func Mixes() map[string][]string {
	return map[string][]string{
		"mix1": {"bwaves", "gcc", "mcf", "deepsjeng"},
		"mix2": {"cam4", "imagick", "nab", "fotonik3d"},
		"mix3": {"leela", "exchange2", "xz", "wrf"},
		"mix4": {"pop2", "roms", "perlbench", "x264"},
		"mix5": {"xalancbmk", "omnetpp", "cactuBSSN", "lbm"},
	}
}

// Fig10 reproduces the 4-core multi-process figure: slowdown of total CPI
// per mix, per checker configuration, with companion columns excluding
// the LSL NoC-traffic impact (the paper's coloured bars).
func Fig10(sc Scale) (*SeriesResult, error) { return fig10(defaultEngine(), sc) }

func fig10(e *Engine, sc Scale) (*SeriesResult, error) {
	r := &SeriesResult{
		Title:  "Fig. 10: 4-core multi-process SPEC mixes, full coverage",
		Metric: "slowdown % of total CPI vs no-checking baseline",
		Values: make(map[string]map[string]float64),
	}
	configs := []NamedConfig{
		{Label: "1xX2@3.0", Cfg: core.DefaultConfig(x2Spec(1, 3.0))},
		{Label: "2xX2@1.5", Cfg: core.DefaultConfig(x2Spec(2, 1.5))},
		{Label: "4xA510@2.0", Cfg: core.DefaultConfig(a510Spec(4, 2.0))},
	}
	for _, nc := range configs {
		r.Order = append(r.Order, nc.Label, nc.Label+"-noLSLnoc")
		r.Values[nc.Label] = make(map[string]float64)
		r.Values[nc.Label+"-noLSLnoc"] = make(map[string]float64)
	}

	perLane := sc.Insts / 2 // 4 lanes: keep total work comparable
	mixNames := sortedKeys(Mixes())
	baseF := make(map[string]*Future, len(mixNames))
	runF := make(map[string]map[string]*Future, len(mixNames))
	for _, mixName := range mixNames {
		r.Benchmarks = append(r.Benchmarks, mixName)
		var ws []core.Workload
		for _, b := range Mixes()[mixName] {
			ws = append(ws, specRun(b, perLane, 0)...)
		}
		baseF[mixName] = e.Submit(baselineCfg(), ws)
		runF[mixName] = make(map[string]*Future, 2*len(configs))
		for _, nc := range configs {
			for _, lslOn := range []bool{true, false} {
				cfg := nc.Cfg
				cfg.LSLTrafficOnNoC = lslOn
				label := nc.Label
				if !lslOn {
					label += "-noLSLnoc"
				}
				runF[mixName][label] = e.Submit(cfg, ws)
			}
		}
	}

	for _, mixName := range mixNames {
		baseRes, err := clean(baseF[mixName], "fig10 baseline %s", mixName)
		if err != nil {
			return nil, err
		}
		base := baseRes.TotalCPI(3.0)
		for _, nc := range configs {
			for _, label := range []string{nc.Label, nc.Label + "-noLSLnoc"} {
				res, err := clean(runF[mixName][label], "fig10 %s/%s", label, mixName)
				if err != nil {
					return nil, err
				}
				r.Values[label][mixName] = (res.TotalCPI(3.0)/base - 1) * 100
			}
		}
	}
	r.Notes = append(r.Notes,
		"paper: ~1% gm for homogeneous and 2xX2@1.5; <0.6% for 4xA510@2.0; coloured bars exclude LSL NoC traffic")
	return r, nil
}
