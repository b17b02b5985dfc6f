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

// studyConfig is the strategy studies' system under st: 4xA510@2GHz
// with the default recovery policy. Main core, checker pool and recovery
// are identical for every strategy, so each delta in the tables is the
// verification protocol's alone.
func studyConfig(st core.Strategy) core.Config {
	cfg := core.DefaultConfig(a510Spec(4, 2.0))
	cfg.Recovery = core.DefaultRecovery()
	cfg.Strategy = st
	return cfg
}

// pairedRuns is what pairedStudy hands the divergent and strategies
// studies, keyed by Strategy.String().
type pairedRuns struct {
	// slowdown is the per-workload slowdown table vs the no-checking
	// baseline, one column per strategy.
	slowdown *SeriesResult
	// campaigns are the paired fault-injection campaigns.
	campaigns map[string]*fault.CampaignResult
	// clean are the fault-free results in workload order.
	clean map[string][]*core.Result
}

// pairedStudy runs strats head to head over the divergentWorkloads pool:
// fault-free runs for each strategy's slowdown plus one fault-injection
// campaign per strategy. Same seed, trial count, workload pool and mix,
// one config each: genTrial's per-trial rng draws the identical (fault,
// workload, checker) stream for every strategy, so trial i is the same
// experiment under all of them. Trial seeds derive from the base seed
// and results land in trial order, so the results are byte-identical at
// any worker count. study names the caller in errors.
func pairedStudy(e *Engine, sc Scale, seed int64, trials int, study, title string, strats []core.Strategy) (*pairedRuns, error) {
	ws, release, err := e.divergentWorkloads(sc)
	if err != nil {
		return nil, err
	}
	defer release()
	out := &pairedRuns{
		slowdown: &SeriesResult{
			Title:  title,
			Metric: "slowdown % vs no-checking baseline",
			Values: make(map[string]map[string]float64, len(strats)),
		},
		campaigns: make(map[string]*fault.CampaignResult, len(strats)),
		clean:     make(map[string][]*core.Result, len(strats)),
	}
	for _, st := range strats {
		out.slowdown.Order = append(out.slowdown.Order, st.String())
		out.slowdown.Values[st.String()] = map[string]float64{}
	}

	// Phase 1: fault-free runs, all in flight at once. The campaign
	// phase bypasses the engine (private injectors), so kicking these
	// off first keeps the pool busy throughout.
	baseF := make([]*Future, len(ws))
	runF := make([][]*Future, len(ws))
	for i, w := range ws {
		out.slowdown.Benchmarks = append(out.slowdown.Benchmarks, w.Name)
		one := []core.Workload{{Name: w.Name, Prog: w.Prog, MaxInsts: sc.Insts, WarmupInsts: sc.Warmup}}
		baseF[i] = e.Submit(baselineCfg(), one)
		for _, st := range strats {
			runF[i] = append(runF[i], e.Submit(studyConfig(st), one))
		}
	}

	// Phase 2: the paired campaigns.
	mix := divergentMix()
	var first *fault.CampaignResult
	for _, st := range strats {
		camp, err := e.campaign(fault.CampaignConfig{
			Seed:      seed,
			Trials:    trials,
			Workloads: ws,
			Configs:   []core.Config{studyConfig(st)},
			Mix:       &mix,
		})
		if err != nil {
			return nil, fmt.Errorf("%s study, %v campaign: %w", study, st, err)
		}
		if first == nil {
			first = camp
		}
		for i := range camp.Trials {
			ft, t := &first.Trials[i], &camp.Trials[i]
			if ft.Fault != t.Fault || ft.Workload != t.Workload {
				return nil, fmt.Errorf("%s study: %v trial %d not paired (%v vs %v)", study, st, i, ft.Fault, t.Fault)
			}
		}
		out.campaigns[st.String()] = camp
	}

	// Phase 3: collect the slowdown table.
	for i, w := range ws {
		base, err := clean(baseF[i], "%s study baseline %s", study, w.Name)
		if err != nil {
			return nil, err
		}
		for j, name := range out.slowdown.Order {
			res, err := clean(runF[i][j], "%s study %s %s", study, name, w.Name)
			if err != nil {
				return nil, err
			}
			out.slowdown.Values[name][w.Name] = slowdownPct(res, base)
			out.clean[name] = append(out.clean[name], res)
		}
	}
	return out, nil
}

// Strategies runs the checker-strategy head-to-head: fault-free runs
// quantifying each strategy's slowdown and energy overhead, plus paired
// fault-injection campaigns quantifying its detection coverage and
// latency (pairedStudy). The campaigns run at the shared engine's worker
// bound.
func Strategies(sc Scale, seed int64, trials int) (*StrategyResult, error) {
	return strategyStudy(defaultEngine(), sc, seed, trials)
}

func strategyStudy(e *Engine, sc Scale, seed int64, trials int) (*StrategyResult, error) {
	if trials <= 0 {
		trials = 4 * sc.FaultTrials
	}
	strats := []core.Strategy{core.StrategyLockstep, core.StrategyDivergent, core.StrategyChunkReplay, core.StrategyRelaxed}
	runs, err := pairedStudy(e, sc, seed, trials, "strategy",
		"Checker strategies: full-coverage slowdown, 4xA510@2GHz", strats)
	if err != nil {
		return nil, err
	}
	out := &StrategyResult{
		Order:             runs.slowdown.Order,
		Slowdown:          runs.slowdown,
		Campaigns:         runs.campaigns,
		EnergyOverheadPct: make(map[string]float64, len(strats)),
	}
	cfg := studyConfig(core.StrategyLockstep)
	var poolMM2 float64
	for _, spec := range cfg.Checkers {
		poolMM2 += float64(spec.Count) * spec.CPU.AreaMM2
	}
	out.AreaOverheadPct = poolMM2 / cfg.Main.AreaMM2 * 100

	for _, st := range strats {
		name := st.String()
		for i, res := range runs.clean[name] {
			rep, err := core.Energy(studyConfig(st), res)
			if err != nil {
				return nil, fmt.Errorf("strategy study %s %s energy: %w", name, out.Slowdown.Benchmarks[i], err)
			}
			out.EnergyOverheadPct[name] += rep.Overhead * 100 / float64(len(runs.clean[name]))
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
