package experiments

import (
	"fmt"

	"paraverser/internal/core"
)

// fig7Configs are the opportunistic-mode configurations, including the
// frequency spreads shown as error bars in the paper (footnote 17).
func fig7Configs() []NamedConfig {
	mk := func(spec core.CheckerSpec) core.Config {
		cfg := core.DefaultConfig(spec)
		cfg.Mode = core.ModeOpportunistic
		return cfg
	}
	return []NamedConfig{
		{Label: "1xX2@3.0", Cfg: mk(x2Spec(1, 3.0))},
		{Label: "1xX2@2.7", Cfg: mk(x2Spec(1, 2.7))},
		{Label: "2xX2@1.35", Cfg: mk(x2Spec(2, 1.35))},
		{Label: "2xX2@1.5", Cfg: mk(x2Spec(2, 1.5))},
		{Label: "4xA510@1.6", Cfg: mk(a510Spec(4, 1.6))},
		{Label: "4xA510@1.8", Cfg: mk(a510Spec(4, 1.8))},
		{Label: "4xA510@2.0", Cfg: mk(a510Spec(4, 2.0))},
	}
}

// Fig7 reproduces the opportunistic-mode figure: slowdown per benchmark
// per configuration, plus the run-time instruction coverage the mode
// achieves (section VII-B's 94-99% numbers).
func Fig7(sc Scale) (slow, coverage *SeriesResult, err error) {
	return fig7(defaultEngine(), sc)
}

func fig7(e *Engine, sc Scale) (slow, coverage *SeriesResult, err error) {
	slow = &SeriesResult{
		Title:      "Fig. 7: opportunistic-mode slowdown",
		Metric:     "slowdown % vs no-checking baseline",
		Benchmarks: sc.benchmarks(),
		Values:     make(map[string]map[string]float64),
	}
	coverage = &SeriesResult{
		Title:      "Fig. 7 (companion): run-time instruction coverage",
		Metric:     "% of executed instructions checked",
		Benchmarks: sc.benchmarks(),
		Values:     make(map[string]map[string]float64),
	}
	configs := fig7Configs()
	for _, nc := range configs {
		slow.Order = append(slow.Order, nc.Label)
		coverage.Order = append(coverage.Order, nc.Label)
		slow.Values[nc.Label] = make(map[string]float64)
		coverage.Values[nc.Label] = make(map[string]float64)
	}

	baseF, runF := sc.submitMatrix(e, configs, slow.Benchmarks)
	for _, bench := range slow.Benchmarks {
		base, err := clean(baseF[bench], "fig7 baseline %s", bench)
		if err != nil {
			return nil, nil, err
		}
		for _, nc := range configs {
			res, err := clean(runF[nc.Label][bench], "fig7 %s/%s", nc.Label, bench)
			if err != nil {
				return nil, nil, err
			}
			lane := res.Lanes[0]
			if lane.StallNS != 0 {
				return nil, nil, fmt.Errorf("fig7 %s/%s: opportunistic mode stalled", nc.Label, bench)
			}
			slow.Values[nc.Label][bench] = slowdownPct(res, base)
			coverage.Values[nc.Label][bench] = lane.Coverage() * 100
		}
	}
	slow.Notes = append(slow.Notes,
		"paper: ~1.4% gm homogeneous, <1% for 2xX2 and 4xA510; overhead flat vs frequency (NoC-dominated)")
	coverage.Notes = append(coverage.Notes,
		"paper: ~98% @ X2 3GHz, 94% @ 2.7GHz; 97/96/95% @ A510 2.0/1.8/1.6GHz; bwaves lowest (~71%)")
	return slow, coverage, nil
}
