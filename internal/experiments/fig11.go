package experiments

import (
	"paraverser/internal/core"
	"paraverser/internal/noc"
)

// Fig11 reproduces the NoC sensitivity study: full-coverage slowdown at
// the highest checker frequencies on the fast mesh, the slow mesh
// (128-bit, 1.5GHz), and the slow mesh with Hash Mode, plus a no-NoC-
// impact companion column.
func Fig11(sc Scale) (*SeriesResult, error) { return fig11(defaultEngine(), sc) }

func fig11(e *Engine, sc Scale) (*SeriesResult, error) {
	r := &SeriesResult{
		Title:      "Fig. 11: NoC sensitivity, homogeneous 1xX2@3.0 checker, full coverage",
		Metric:     "slowdown % vs no-checking baseline",
		Benchmarks: sc.benchmarks(),
		Values:     make(map[string]map[string]float64),
	}
	mk := func(mesh noc.Config, hash, lslOn bool) core.Config {
		cfg := core.DefaultConfig(x2Spec(1, 3.0))
		cfg.NoC = mesh
		cfg.HashMode = hash
		cfg.LSLTrafficOnNoC = lslOn
		return cfg
	}
	configs := []NamedConfig{
		{Label: "fastNoC", Cfg: mk(noc.Fast(), false, true)},
		{Label: "slowNoC", Cfg: mk(noc.Slow(), false, true)},
		{Label: "slowNoC+hash", Cfg: mk(noc.Slow(), true, true)},
		{Label: "noNoCimpact", Cfg: mk(noc.Slow(), false, false)},
	}
	for _, nc := range configs {
		r.Order = append(r.Order, nc.Label)
		r.Values[nc.Label] = make(map[string]float64)
	}
	// Checking overhead is measured against a no-checking baseline on the
	// SAME mesh: the study isolates the cost of LSL traffic, not of the
	// slower fabric itself. The matrix's baseline runs on the default,
	// fast mesh.
	baseFastF, runF := sc.submitMatrix(e, configs, r.Benchmarks)
	slowBase := baselineCfg()
	slowBase.NoC = noc.Slow()
	baseSlowF := make(map[string]*Future, len(r.Benchmarks))
	for _, bench := range r.Benchmarks {
		baseSlowF[bench] = sc.submit(e, slowBase, bench)
	}

	for _, bench := range r.Benchmarks {
		baseFast, err := clean(baseFastF[bench], "fig11 fast-mesh baseline %s", bench)
		if err != nil {
			return nil, err
		}
		baseSlow, err := clean(baseSlowF[bench], "fig11 slow-mesh baseline %s", bench)
		if err != nil {
			return nil, err
		}
		for _, nc := range configs {
			res, err := clean(runF[nc.Label][bench], "fig11 %s/%s", nc.Label, bench)
			if err != nil {
				return nil, err
			}
			base := baseSlow
			if nc.Label == "fastNoC" {
				base = baseFast
			}
			r.Values[nc.Label][bench] = slowdownPct(res, base)
		}
	}
	r.Notes = append(r.Notes,
		"paper: slowNoC >15% gm on affected benchmarks; Hash Mode brings it within 0.8% of the fast NoC",
		"Hash Mode halves load traffic and eliminates store traffic (section IV-I)")
	return r, nil
}
