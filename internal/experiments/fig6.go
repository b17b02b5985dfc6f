package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/cpu"
	"paraverser/internal/lockstep"
	"paraverser/internal/power"
)

func x2Spec(n int, f float64) core.CheckerSpec {
	return core.CheckerSpec{CPU: cpu.X2(), FreqGHz: f, Count: n}
}

func a510Spec(n int, f float64) core.CheckerSpec {
	return core.CheckerSpec{CPU: cpu.A510(), FreqGHz: f, Count: n}
}

// fig6Configs are the full-coverage checker configurations of fig. 6,
// including the prior-work baselines remodelled per section VI.
func fig6Configs() []NamedConfig {
	return []NamedConfig{
		{Label: "1xX2@3.0", Cfg: core.DefaultConfig(x2Spec(1, 3.0))},
		{Label: "2xX2@1.5", Cfg: core.DefaultConfig(x2Spec(2, 1.5))},
		{Label: "4xA510@2.0", Cfg: core.DefaultConfig(a510Spec(4, 2.0))},
		{Label: "DSN18-12", Cfg: lockstep.DSN18()},
		{Label: "ParaDox-16", Cfg: lockstep.ParaDox()},
	}
}

// ed2pCfg is the 4xA510 configuration at one DVFS point.
func ed2pCfg(f float64) core.Config {
	return core.DefaultConfig(a510Spec(4, f))
}

// Fig6 reproduces the full-coverage slowdown figure: main-core slowdown
// (percent) per benchmark for each checker configuration, including the
// per-benchmark ED²P-minimal 4xA510 DVFS point.
func Fig6(sc Scale) (*SeriesResult, error) { return fig6(defaultEngine(), sc) }

func fig6(e *Engine, sc Scale) (*SeriesResult, error) {
	r := &SeriesResult{
		Title:      "Fig. 6: full-coverage slowdown by checker configuration",
		Metric:     "slowdown % vs no-checking baseline",
		Benchmarks: sc.benchmarks(),
		Values:     make(map[string]map[string]float64),
	}
	configs := fig6Configs()
	for _, nc := range configs {
		r.Order = append(r.Order, nc.Label)
		r.Values[nc.Label] = make(map[string]float64)
	}
	const ed2pLabel = "4xA510-ED2P"
	r.Order = append(r.Order, ed2pLabel)
	r.Values[ed2pLabel] = make(map[string]float64)

	// Submit the full (config × benchmark) matrix, the baselines and the
	// DVFS sweep up front; the engine runs them in parallel and shares
	// repeats.
	baseF, runF := sc.submitMatrix(e, configs, r.Benchmarks)
	for _, bench := range r.Benchmarks {
		for _, f := range sc.ED2PFreqs {
			sc.submit(e, ed2pCfg(f), bench)
		}
	}

	// Assemble in deterministic label/benchmark order.
	for _, bench := range r.Benchmarks {
		base, err := clean(baseF[bench], "fig6 baseline %s", bench)
		if err != nil {
			return nil, err
		}
		for _, nc := range configs {
			res, err := clean(runF[nc.Label][bench], "fig6 %s/%s", nc.Label, bench)
			if err != nil {
				return nil, err
			}
			r.Values[nc.Label][bench] = slowdownPct(res, base)
		}
		slow, _, err := ed2pPoint(e, sc, bench, base)
		if err != nil {
			return nil, err
		}
		r.Values[ed2pLabel][bench] = slow
	}
	r.Notes = append(r.Notes,
		"paper: ~1.6% gm homogeneous, ~3.4% gm 4xA510@2.0, ~4.3% gm ED2P, ~9% DSN18, ~1.2% ParaDox",
		fmt.Sprintf("ParaDox/DSN18 dedicated cores carry ~%.0f%%/%.0f%% extra area (section VII-E)",
			lockstep.AreaOverhead(lockstep.ParaDox())*100, lockstep.AreaOverhead(lockstep.DSN18())*100))
	return r, nil
}

// ed2pPoint searches the A510 DVFS points for the frequency minimising
// energy x delay² on one benchmark, returning its slowdown percentage and
// checking-energy overhead. Every DVFS run goes through the engine's
// cache, so points the figure (or an earlier study) already simulated are
// not re-run.
func ed2pPoint(e *Engine, sc Scale, bench string, base *core.Result) (slowPct, energyOverhead float64, err error) {
	type point struct {
		slow, overhead float64
		energyJ, dNS   float64
	}
	points := make(map[float64]point, len(sc.ED2PFreqs))
	futs := make(map[float64]*Future, len(sc.ED2PFreqs))
	for _, f := range sc.ED2PFreqs {
		futs[f] = sc.submit(e, ed2pCfg(f), bench)
	}
	for _, f := range sc.ED2PFreqs {
		res, err := clean(futs[f], "fig6 ed2p %s @%.2gGHz", bench, f)
		if err != nil {
			return 0, 0, err
		}
		rep, err := core.Energy(ed2pCfg(f), res)
		if err != nil {
			return 0, 0, fmt.Errorf("fig6 ed2p %s @%.2gGHz: %w", bench, f, err)
		}
		points[f] = point{
			slow: slowdownPct(res, base), overhead: rep.Overhead,
			energyJ: rep.MainJ + rep.CheckerJ, dNS: res.TimeNS(),
		}
	}
	bestF, _, _ := power.MinimiseED2P(sc.ED2PFreqs, func(f float64) (float64, float64) {
		p := points[f]
		return p.energyJ, p.dNS
	})
	best := points[bestF]
	return best.slow, best.overhead, nil
}
