package experiments

import (
	"fmt"

	"paraverser/internal/core"
	"paraverser/internal/fault"
	"paraverser/internal/stats"
)

// StrategyResult reports the checker-strategy head-to-head study: the
// same workload pool and the same fault streams run under every
// verification strategy, so each column's slowdown, detection-latency
// and energy deltas are attributable to the strategy alone.
type StrategyResult struct {
	// Order lists the strategies in render order.
	Order []string
	// Slowdown is the per-workload slowdown table (vs the no-checking
	// baseline) for every strategy.
	Slowdown *SeriesResult
	// Campaigns maps strategy name to its fault-injection campaign.
	// Equal seeds and single-config lists make trial i inject the
	// identical fault into the identical workload under every strategy,
	// so the outcome columns pair exactly.
	Campaigns map[string]*fault.CampaignResult
	// EnergyOverheadPct is the mean checker-energy overhead (checker
	// joules over main joules, internal/power models) across the clean
	// runs, per strategy.
	EnergyOverheadPct map[string]float64
	// AreaOverheadPct is the checker-pool silicon relative to the main
	// core. The pool is identical across strategies by construction —
	// the study isolates the protocol, not the hardware — so this is
	// one number, reported alongside the per-strategy columns for the
	// paper-style cost summary.
	AreaOverheadPct float64
}

// strategyConfigs returns one matched configuration per strategy:
// identical main core, checker pool and recovery policy — only the
// verification protocol differs.
func strategyConfigs() (order []string, cfgs map[string]core.Config) {
	base := core.DefaultConfig(a510Spec(4, 2.0))
	base.Recovery = core.DefaultRecovery()
	order = []string{"lockstep", "divergent", "chunk-replay", "relaxed"}
	cfgs = make(map[string]core.Config, len(order))
	for _, name := range order {
		cfg := base
		switch name {
		case "lockstep":
			cfg.Strategy = core.StrategyLockstep
		case "divergent":
			cfg.Strategy = core.StrategyDivergent
		case "chunk-replay":
			cfg.Strategy = core.StrategyChunkReplay
		case "relaxed":
			cfg.Strategy = core.StrategyRelaxed
		}
		cfgs[name] = cfg
	}
	return order, cfgs
}

// Strategies runs the checker-strategy head-to-head: fault-free runs
// quantifying each strategy's slowdown and energy overhead, plus paired
// fault-injection campaigns quantifying its detection coverage and
// latency. Trial seeds derive from the base seed and results land in
// trial order, so the tables are byte-identical at any worker count.
// The campaigns run at the shared engine's worker bound.
func Strategies(sc Scale, seed int64, trials int) (*StrategyResult, error) {
	return strategyStudy(defaultEngine(), sc, seed, trials)
}

func strategyStudy(e *Engine, sc Scale, seed int64, trials int) (*StrategyResult, error) {
	if trials <= 0 {
		trials = 4 * sc.FaultTrials
	}
	ws, err := divergentWorkloads(sc)
	if err != nil {
		return nil, err
	}
	order, cfgs := strategyConfigs()

	out := &StrategyResult{
		Order:             order,
		Campaigns:         make(map[string]*fault.CampaignResult, len(order)),
		EnergyOverheadPct: make(map[string]float64, len(order)),
		Slowdown: &SeriesResult{
			Title:  "Checker strategies: full-coverage slowdown, 4xA510@2GHz",
			Metric: "slowdown % vs no-checking baseline",
			Values: map[string]map[string]float64{},
			Order:  order,
		},
	}
	for _, name := range order {
		out.Slowdown.Values[name] = map[string]float64{}
	}
	main := cfgs[order[0]]
	var poolMM2 float64
	for _, spec := range main.Checkers {
		poolMM2 += float64(spec.Count) * spec.CPU.AreaMM2
	}
	out.AreaOverheadPct = poolMM2 / main.Main.AreaMM2 * 100

	// Phase 1: fault-free slowdown/energy runs, all in flight at once.
	// The campaign phase bypasses the engine (private injectors), so
	// kicking these off first keeps the pool busy throughout.
	type cleanRun struct {
		base  *Future
		strat map[string]*Future
	}
	cleanF := make([]cleanRun, len(ws))
	for i, w := range ws {
		out.Slowdown.Benchmarks = append(out.Slowdown.Benchmarks, w.Name)
		one := []core.Workload{{Name: w.Name, Prog: w.Prog, MaxInsts: sc.Insts, WarmupInsts: sc.Warmup}}
		cleanF[i] = cleanRun{base: e.Submit(baselineCfg(), one), strat: make(map[string]*Future, len(order))}
		for _, name := range order {
			cleanF[i].strat[name] = e.Submit(cfgs[name], one)
		}
	}

	// Phase 2: the paired campaigns. Same seed, same trial count, same
	// workload pool, one config each: genTrial's per-trial rng draws the
	// identical (fault, workload, checker) stream for every strategy, so
	// trial i is the same experiment under all four protocols.
	mix := divergentMix()
	for _, name := range order {
		camp, err := e.campaign(fault.CampaignConfig{
			Seed:      seed,
			Trials:    trials,
			Workloads: ws,
			Configs:   []core.Config{cfgs[name]},
			Mix:       &mix,
		})
		if err != nil {
			return nil, fmt.Errorf("strategy study, %s campaign: %w", name, err)
		}
		out.Campaigns[name] = camp
	}

	// Phase 3: collect the slowdown and energy tables.
	for i, w := range ws {
		base, err := clean(cleanF[i].base, "strategy study baseline %s", w.Name)
		if err != nil {
			return nil, err
		}
		for _, name := range order {
			res, err := clean(cleanF[i].strat[name], "strategy study %s %s", name, w.Name)
			if err != nil {
				return nil, err
			}
			out.Slowdown.Values[name][w.Name] = slowdownPct(res, base)
			rep, err := core.Energy(cfgs[name], res)
			if err != nil {
				return nil, fmt.Errorf("strategy study %s %s energy: %w", name, w.Name, err)
			}
			out.EnergyOverheadPct[name] += rep.Overhead * 100 / float64(len(ws))
		}
	}
	out.Slowdown.Notes = append(out.Slowdown.Notes,
		"chunk-replay batches segments into replay chunks (RepTFD-style), trading detection latency for stall-free logging",
		"relaxed start defers checks onto a busy pool (MEEK-style) before falling back to a lockstep stall")
	return out, nil
}

// Table renders the head-to-head summary: per-strategy cost (slowdown,
// energy, area) and detection quality (outcome split, latency mean and
// p95 in main-core instructions), then the per-workload slowdown table.
func (r *StrategyResult) Table() string {
	t := stats.NewTable("strategy", "slowdown%", "energy-ovh%", "area-ovh%",
		"detected", "masked", "dormant", "SDC", "lat-mean", "lat-p95")
	for _, name := range r.Order {
		camp := r.Campaigns[name]
		oc := camp.Outcomes()
		lat := camp.Latencies()
		latMean, latP95 := "-", "-"
		if len(lat) > 0 {
			latMean = fmt.Sprintf("%.0f", stats.Mean(lat))
			latP95 = fmt.Sprintf("%.0f", stats.Percentile(lat, 95))
		}
		// Benchmarks order, not map order: float summation must be
		// deterministic for the byte-identical-tables contract.
		var slows []float64
		for _, b := range r.Slowdown.Benchmarks {
			slows = append(slows, r.Slowdown.Values[name][b])
		}
		t.Row(name,
			fmt.Sprintf("%.2f", stats.Mean(slows)),
			fmt.Sprintf("%.1f", r.EnergyOverheadPct[name]),
			fmt.Sprintf("%.1f", r.AreaOverheadPct),
			oc[fault.Detected], oc[fault.Masked], oc[fault.Dormant], oc[fault.UndetectedSDC],
			latMean, latP95)
	}
	var trials int
	if c := r.Campaigns[r.Order[0]]; c != nil {
		trials = len(c.Trials)
	}
	out := fmt.Sprintf("Checker-strategy head-to-head (%d paired trials per strategy, identical fault streams)\n%s\n",
		trials, t.String())
	return out + r.Slowdown.Table()
}
